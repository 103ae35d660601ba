// Command modischaos is the scripted chaos harness of the serving
// fleet: it launches real modisd daemons as subprocesses, fronts each
// with a TCP fault proxy (repro/internal/chaos), routes through the
// same consistent-hash proxy modisproxy runs, and drives keyed
// submissions through the faults a real deployment sees — dropped
// connections, slow paths, mid-stream resets, partitions, and
// SIGKILLed nodes that warm-restart from their state directory.
//
// After every scenario it checks the resilience contract: no accepted
// job lost, no job duplicated (at most one completed run per
// idempotency key, fleet-wide), and every skyline byte-identical to
// the fault-free reference. The kill scenario additionally proves the
// proxy→persistence path: a job finished before the SIGKILL is still
// listed — report included — through the proxy after the warm restart,
// and a fresh submission of the same workload replays the recovered
// memo instead of re-running exact inference (zero exact calls).
//
// Usage:
//
//	go build -o /tmp/modisd ./cmd/modisd
//	go build -o /tmp/modischaos ./cmd/modischaos
//	/tmp/modischaos -modisd /tmp/modisd
//
// Exit status 0 means every invariant held; 1 lists the violations.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/modis/proxy"
	"repro/modis/serve"
)

type node struct {
	addr     string // real daemon address (stable across restarts)
	stateDir string
	cmd      *exec.Cmd
	cp       *chaos.Proxy
}

type harness struct {
	modisd  string
	rows    int
	workdir string
	nodes   []*node
	front   *http.Server
	frontLn net.Listener
	proxy   *proxy.Proxy
	cl      *serve.Client

	ref        map[string]string // workload -> fault-free skyline bytes
	accepted   []chaos.Accepted
	violations []string
}

func main() {
	var (
		modisd = flag.String("modisd", "modisd", "path to the modisd binary to chaos-test")
		rows   = flag.Int("rows", 80, "row scale of the built-in workloads")
		keep   = flag.Bool("keep", false, "keep the scratch directory (state dirs, logs) after the run")
	)
	flag.Parse()
	if err := run(*modisd, *rows, *keep); err != nil {
		fmt.Fprintf(os.Stderr, "modischaos: %v\n", err)
		os.Exit(1)
	}
}

// run starts the fleet, drives every scenario and checks the contract.
// Its deferred teardown stops every daemon started so far on every
// return path, a failed setup included; os.Exit would skip it, so only
// main exits.
func run(modisd string, rows int, keep bool) error {
	h := &harness{modisd: modisd, rows: rows, ref: map[string]string{}}
	var err error
	h.workdir, err = os.MkdirTemp("", "modischaos-*")
	if err != nil {
		return err
	}
	if !keep {
		defer os.RemoveAll(h.workdir)
	} else {
		defer fmt.Fprintf(os.Stderr, "modischaos: scratch kept at %s\n", h.workdir)
	}
	defer h.teardown()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	if err := h.setup(ctx); err != nil {
		return err
	}
	scenarios := []struct {
		name string
		run  func(context.Context) error
	}{
		{"baseline", h.scenarioBaseline},
		{"drop", h.scenarioDrop},
		{"slow", h.scenarioSlow},
		{"reset", h.scenarioReset},
		{"kill", h.scenarioKill},
	}
	for _, sc := range scenarios {
		fmt.Fprintf(os.Stderr, "== scenario %s\n", sc.name)
		if err := sc.run(ctx); err != nil {
			h.violations = append(h.violations, fmt.Sprintf("scenario %s: %v", sc.name, err))
			break
		}
	}

	// The global contract, checked through the proxy against everything
	// every scenario accepted.
	h.violations = append(h.violations, chaos.CheckInvariants(ctx, h.cl, h.accepted, h.ref)...)
	if len(h.violations) > 0 {
		for _, v := range h.violations {
			fmt.Fprintf(os.Stderr, "VIOLATION: %s\n", v)
		}
		return fmt.Errorf("%d invariant violations", len(h.violations))
	}
	fmt.Fprintf(os.Stderr, "modischaos: %d accepted jobs, all invariants held: OK\n", len(h.accepted))
	return nil
}

// setup starts two daemons, wraps each in a fault proxy, and fronts
// the pair with the routing proxy.
func (h *harness) setup(ctx context.Context) error {
	for i := 0; i < 2; i++ {
		port, err := freePort()
		if err != nil {
			return err
		}
		n := &node{
			addr:     fmt.Sprintf("127.0.0.1:%d", port),
			stateDir: filepath.Join(h.workdir, fmt.Sprintf("state%d", i)),
		}
		if err := h.startDaemon(n); err != nil {
			return err
		}
		// Recorded as soon as it runs, so teardown stops it even when
		// the rest of the setup fails.
		h.nodes = append(h.nodes, n)
		if n.cp, err = chaos.NewProxy("127.0.0.1:0", n.addr, chaos.Faults{}); err != nil {
			return err
		}
	}
	for _, n := range h.nodes {
		if err := waitHealthy(ctx, n.addr); err != nil {
			return err
		}
	}

	var addrs []string
	for _, n := range h.nodes {
		addrs = append(addrs, n.cp.Addr())
	}
	h.proxy = proxy.New(proxy.Options{
		Nodes:          addrs,
		HealthInterval: -1, // swept explicitly, so scenarios control when the view changes
		Breaker:        proxy.BreakerOptions{Cooldown: 200 * time.Millisecond},
	})
	h.proxy.CheckNow(ctx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.frontLn = ln
	h.front = &http.Server{Handler: h.proxy}
	go h.front.Serve(ln)

	h.cl = serve.NewClient(ln.Addr().String()).WithRetry(serve.RetryPolicy{
		MaxAttempts: 8, BaseBackoff: 25 * time.Millisecond, MaxBackoff: 400 * time.Millisecond,
	})
	return nil
}

func (h *harness) teardown() {
	if h.front != nil {
		h.front.Close()
		h.front = nil
	}
	if h.proxy != nil {
		h.proxy.Close()
		h.proxy = nil
	}
	for _, n := range h.nodes {
		if n.cp != nil {
			n.cp.Close()
		}
		if n.cmd != nil && n.cmd.Process != nil {
			n.cmd.Process.Kill()
			n.cmd.Wait()
		}
	}
	h.nodes = nil
}

func (h *harness) startDaemon(n *node) error {
	cmd := exec.Command(h.modisd,
		"-addr", n.addr, "-advertise", n.addr,
		"-tasks", "t1,t3", "-rows", fmt.Sprint(h.rows),
		"-state-dir", n.stateDir, "-commit-interval", "20ms",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", h.modisd, err)
	}
	n.cmd = cmd
	return nil
}

// sigkill kills the daemon the way a crash does — no drain, no final
// flush — and reaps it.
func (n *node) sigkill() error {
	if err := n.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return err
	}
	n.cmd.Wait()
	n.cmd = nil
	return nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port, nil
}

func waitHealthy(ctx context.Context, addr string) error {
	url := "http://" + addr + "/healthz"
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("node %s never became healthy: %w", addr, ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func submitReq(workload string) serve.SubmitRequest {
	eps, lvl, seed := 0.15, 2, int64(2)
	return serve.SubmitRequest{
		Workload:  workload,
		Algorithm: "bi",
		Options:   &serve.JobOptions{Epsilon: &eps, MaxLevel: &lvl, Seed: &seed},
		TimeoutMS: 120_000,
	}
}

// submitAndWait drives one keyed submission to completion through the
// fleet and records it for the invariant sweep.
func (h *harness) submitAndWait(ctx context.Context, workload string) (*serve.JobStatus, error) {
	req := submitReq(workload)
	req.IdempotencyKey = serve.NewIdempotencyKey()
	st, err := h.cl.Submit(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("submit %s: %w", workload, err)
	}
	h.accepted = append(h.accepted, chaos.Accepted{Key: req.IdempotencyKey, JobID: st.JobID, Config: workload})
	final, err := h.cl.Wait(ctx, st.JobID, 50*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("waiting for %s (%s): %w", st.JobID, workload, err)
	}
	if final.Status != serve.StatusDone {
		return nil, fmt.Errorf("job %s (%s) ended %s: %s", st.JobID, workload, final.Status, final.Error)
	}
	return final, nil
}

func (h *harness) setFaults(f chaos.Faults) {
	for _, n := range h.nodes {
		n.cp.SetFaults(f)
	}
}

// scenarioBaseline records the fault-free reference skylines the other
// scenarios are held to.
func (h *harness) scenarioBaseline(ctx context.Context) error {
	for _, wl := range []string{"t1", "t3"} {
		final, err := h.submitAndWait(ctx, wl)
		if err != nil {
			return err
		}
		sky, err := chaos.SkylineJSON(final)
		if err != nil {
			return err
		}
		h.ref[wl] = sky
	}
	return nil
}

// scenarioDrop: every third connection to either node dies before a
// byte flows; retries under the idempotency key absorb it.
func (h *harness) scenarioDrop(ctx context.Context) error {
	h.setFaults(chaos.Faults{DropEvery: 3})
	defer h.setFaults(chaos.Faults{})
	for i := 0; i < 4; i++ {
		if _, err := h.submitAndWait(ctx, []string{"t1", "t3"}[i%2]); err != nil {
			return err
		}
	}
	return nil
}

// scenarioSlow: both paths gain latency; nothing fails, everything is
// merely late — results must be unchanged.
func (h *harness) scenarioSlow(ctx context.Context) error {
	h.setFaults(chaos.Faults{Latency: 10 * time.Millisecond})
	defer h.setFaults(chaos.Faults{})
	for _, wl := range []string{"t1", "t3"} {
		if _, err := h.submitAndWait(ctx, wl); err != nil {
			return err
		}
	}
	return nil
}

// scenarioReset: responses from node 0 are cut by an RST after 256
// bytes — acceptances may be lost after the node processed them, the
// exact ambiguity the idempotency key resolves. The submission is
// retried under one key with the fault on, then the fault lifts and
// the same key must resolve to exactly one completed job.
func (h *harness) scenarioReset(ctx context.Context) error {
	h.nodes[0].cp.SetFaults(chaos.Faults{ResetAfterBytes: 256})
	key := serve.NewIdempotencyKey()
	req := submitReq("t1")
	req.IdempotencyKey = key
	shortCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	st, err := h.cl.Submit(shortCtx, req)
	cancel()
	h.nodes[0].cp.SetFaults(chaos.Faults{})
	if err != nil {
		// Every response was cut before the acceptance arrived; with the
		// fault lifted the same key resolves the ambiguity.
		if st, err = h.cl.Submit(ctx, req); err != nil {
			return fmt.Errorf("keyed submit after resets lifted: %w", err)
		}
	}
	h.accepted = append(h.accepted, chaos.Accepted{Key: key, JobID: st.JobID, Config: "t1"})
	if final, err := h.cl.Wait(ctx, st.JobID, 50*time.Millisecond); err != nil {
		return err
	} else if final.Status != serve.StatusDone {
		return fmt.Errorf("job %s ended %s: %s", st.JobID, final.Status, final.Error)
	}
	return nil
}

// scenarioKill is the proxy→persistence end-to-end: finish a job, find
// its owner, SIGKILL the owner mid-fleet, warm-restart it from its
// state directory, and require (1) the finished job is still listed —
// report included — through the proxy, and (2) a fresh submission of
// the same workload warm-starts from the recovered memo: done, with
// zero exact-inference calls.
func (h *harness) scenarioKill(ctx context.Context) error {
	final, err := h.submitAndWait(ctx, "t3")
	if err != nil {
		return err
	}
	owner, err := h.ownerOf(ctx, final.JobID)
	if err != nil {
		return err
	}
	// Persistence is write-behind (-commit-interval 20ms): give the
	// committer a few intervals so the ledger and memo tails are durable
	// before the crash — a SIGKILL inside the commit window legitimately
	// loses the uncommitted tail, which is not what this scenario tests.
	time.Sleep(500 * time.Millisecond)
	fmt.Fprintf(os.Stderr, "   SIGKILL owner %s of job %s\n", owner.addr, final.JobID)
	if err := owner.sigkill(); err != nil {
		return err
	}
	h.proxy.CheckNow(ctx) // the fleet sees the dead node

	if err := h.startDaemon(owner); err != nil {
		return err
	}
	if err := waitHealthy(ctx, owner.addr); err != nil {
		return err
	}
	h.proxy.CheckNow(ctx) // and the warm restart

	// (1) The pre-kill job survived the crash: listed through the proxy,
	// done, report intact, skyline still the reference one.
	recovered, err := h.cl.Status(ctx, final.JobID)
	if err != nil {
		return fmt.Errorf("job %s lost across warm restart: %w", final.JobID, err)
	}
	if recovered.Status != serve.StatusDone || recovered.Report == nil {
		return fmt.Errorf("job %s recovered as %s (report present: %v), want done with report",
			final.JobID, recovered.Status, recovered.Report != nil)
	}
	sky, err := chaos.SkylineJSON(recovered)
	if err != nil {
		return err
	}
	if sky != h.ref["t3"] {
		return fmt.Errorf("job %s skyline changed across warm restart", final.JobID)
	}

	// (2) The memo warm-started too: resubmitting the workload finds
	// every needed valuation on disk and runs zero exact inferences.
	resub, err := h.submitAndWait(ctx, "t3")
	if err != nil {
		return err
	}
	if resub.Report.ExactCalls != 0 {
		return fmt.Errorf("resubmit after warm restart ran %d exact inferences, want 0 (memo not recovered)",
			resub.Report.ExactCalls)
	}
	return nil
}

// ownerOf finds which daemon ran a job by asking the nodes directly
// (around the fault proxies).
func (h *harness) ownerOf(ctx context.Context, jobID string) (*node, error) {
	for _, n := range h.nodes {
		if _, err := serve.NewClient(n.addr).Status(ctx, jobID); err == nil {
			return n, nil
		}
	}
	return nil, fmt.Errorf("no node owns job %s", jobID)
}
