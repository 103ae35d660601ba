// Command modisproxy is the multi-node front door of the MODis serving
// stack: a thin HTTP proxy that consistent-hashes workload descriptor
// hashes across a fleet of modisd nodes, so every workload's jobs —
// and with them its memoized valuations and persisted
// state-dir/<hash>/ directory — concentrate on one owning node without
// any coordination. It forwards POST /v1/jobs to the shard owner,
// follows job reads and SSE event streams to the node that ran the
// job, merges the fleet's workload and algorithm catalogs, and applies
// per-tenant admission control (token-bucket submission rate plus
// per-tenant and global concurrent-job caps; rejections are 429 with
// Retry-After).
//
// Nodes are health-checked on -health-interval; new submissions route
// away from dead nodes to the next ring candidate. A submission whose
// node fails at the transport level is retried once on that node, 25ms
// later, then fails over along the ring under the same idempotency
// key. Every exchange with a node goes through serve.Client, except
// the SSE event pipe. Routing is deterministic in the -nodes list
// (order-insensitive), so restarting the proxy — or running several
// proxies with the same fleet — keeps every shard on the same owner.
//
// Usage:
//
//	modisproxy -addr :9090 -nodes host1:8080,host2:8080 \
//	    -rate 5 -burst 10 -max-tenant-jobs 4
//	modis -remote localhost:9090 -workload t3 -algo bi   # CLI through it
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/modis/proxy"
)

func main() {
	var (
		addr       = flag.String("addr", ":9090", "HTTP listen address")
		nodes      = flag.String("nodes", "", "comma-separated modisd node addresses forming the routing ring")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per fleet member (0 = default 64)")
		loadFactor = flag.Float64("load-factor", 0, "bounded-load ceiling multiplier (0 = default 1.25)")
		healthInt  = flag.Duration("health-interval", 2*time.Second, "node health/catalog sweep period")
		probeTO    = flag.Duration("probe-timeout", 0, "per-node health probe timeout within a sweep (0 = default 1s)")
		brFails    = flag.Int("breaker-failures", 0, "consecutive node failures that open its circuit breaker (0 = default 1)")
		brCooldown = flag.Duration("breaker-cooldown", 0, "open-circuit cooldown before a half-open probe (0 = default 2s)")
		rate       = flag.Float64("rate", 0, "per-tenant sustained submissions/second (0 = unlimited)")
		burst      = flag.Float64("burst", 0, "per-tenant submission burst depth (0 = default max(rate, 1))")
		tenantJobs = flag.Int("max-tenant-jobs", 0, "per-tenant concurrent-job cap (0 = unlimited)")
		globalJobs = flag.Int("max-global-jobs", 0, "fleet-wide concurrent-job cap through this proxy (0 = unlimited)")
	)
	flag.Parse()

	var fleet []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			fleet = append(fleet, n)
		}
	}
	if len(fleet) == 0 {
		fatal(errors.New("no fleet: give -nodes host1:8080,host2:8080"))
	}

	p := proxy.New(proxy.Options{
		Nodes:          fleet,
		VNodes:         *vnodes,
		LoadFactor:     *loadFactor,
		HealthInterval: *healthInt,
		ProbeTimeout:   *probeTO,
		Breaker: proxy.BreakerOptions{
			FailureThreshold: *brFails,
			Cooldown:         *brCooldown,
		},
		Admission: proxy.AdmissionOptions{
			Rate:          *rate,
			Burst:         *burst,
			MaxTenantJobs: *tenantJobs,
			MaxGlobalJobs: *globalJobs,
		},
	})
	defer p.Close()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: p}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()
	fmt.Fprintf(os.Stderr, "modisproxy: routing %d nodes on %s\n", len(fleet), ln.Addr())

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "modisproxy: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "modisproxy: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "modisproxy: bye")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "modisproxy: %v\n", err)
	os.Exit(1)
}
