package main

// Process management and raw HTTP for the two serving workloads. The
// daemon is reached only through its binary, its flags and its wire
// contract.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/modis/serve"
)

// httpc serves the benchmark's own raw GETs (/healthz, /metrics);
// serve.Client brings its own.
var httpc = &http.Client{Timeout: 30 * time.Second}

// listenLine matches the line both daemons print once they listen:
// "modisd: serving … on 127.0.0.1:41233".
var listenLine = regexp.MustCompile(` on (127\.0\.0\.1:\d+)$`)

// daemon is one child process listening on a loopback port it chose.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	ready   time.Duration // process start → first /healthz 200

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
	done chan struct{}
}

// startDaemon starts bin with args plus "-addr 127.0.0.1:0", learns the
// port from its stderr and returns once /healthz answers 200. On any
// failure the process is killed and reaped.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	fail := func(err error) (*daemon, error) {
		d.kill()
		return nil, fmt.Errorf("%s: %w; stderr: %s", filepath.Base(bin), err, d.stderrTail())
	}
	select {
	case d.addr = <-addrCh:
	case <-d.done:
		return fail(errors.New("exited before listening"))
	case <-time.After(60 * time.Second):
		return fail(errors.New("did not listen within 60s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := httpc.Get(d.url("/healthz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("/healthz not ready within 30s"))
		}
		time.Sleep(time.Millisecond)
	}
	d.ready = time.Since(d.started)
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop signals the process, waits until it has ended and returns its
// peak resident set in MB (from the kernel's accounting of the reaped
// child, so nothing outside the checkout is read).
func (d *daemon) stop(sig syscall.Signal) float64 {
	d.cmd.Process.Signal(sig) // an already-exited process is fine
	<-d.done                  // stderr drained: the process closed it
	d.cmd.Wait()              // exit status is irrelevant: we ended it
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return 0
}

func (d *daemon) kill() float64 { return d.stop(syscall.SIGKILL) }

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// health fetches /healthz.
func (d *daemon) health(ctx context.Context) (*serve.HealthResponse, error) {
	var h serve.HealthResponse
	if err := getJSON(ctx, d.url("/healthz"), &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// walTotals sums the committers' counters over every store of the node.
func walTotals(h *serve.HealthResponse) (pending int, flushed uint64) {
	if h.Persistence == nil {
		return 0, 0
	}
	for _, s := range h.Persistence.Stores {
		pending += s.Pending
		flushed += s.Flushed
	}
	return pending, flushed
}

// scrape fetches /metrics and sums every series by metric name (the
// benchmark's daemons hold one or two shards; per-shard labels are
// folded).
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url("/metrics"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
