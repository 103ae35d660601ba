package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/modis"
)

// JSONLRequest is one line of the JSONL protocol — the scripting face
// of the daemon (modisd -jsonl): requests arrive one JSON object per
// line on stdin, responses leave one JSON object per line on stdout.
//
// Ops:
//
//	{"op":"submit","workload":"t3","algorithm":"bi","options":{...},"stream":true}
//	{"op":"status","job_id":"..."}
//	{"op":"cancel","job_id":"..."}
//	{"op":"wait","job_id":"..."}
//	{"op":"workloads"}  {"op":"algorithms"}
//
// A submit answers with an accepted line immediately; with "stream"
// set it is followed by one event line per progress event and, in all
// cases, a final result line when the job terminates. "wait" answers
// when the named job terminates. "tag" is echoed on every response to
// the request that carried it, so scripts can correlate.
type JSONLRequest struct {
	Op     string `json:"op"`
	Tag    string `json:"tag,omitempty"`
	JobID  string `json:"job_id,omitempty"`
	Stream bool   `json:"stream,omitempty"`
	SubmitRequest
}

// JSONLResponse is one output line of the JSONL protocol. Kind is
// "accepted", "event", "result", "status", "workloads", "algorithms",
// or "error".
type JSONLResponse struct {
	Kind  string       `json:"kind"`
	Tag   string       `json:"tag,omitempty"`
	JobID string       `json:"job_id,omitempty"`
	Error string       `json:"error,omitempty"`
	Event *modis.Event `json:"event,omitempty"`
	// Status carries job state for "accepted", "result", and "status"
	// lines (a result line's Status includes the report).
	Status *JobStatus `json:"status,omitempty"`
	Names  []string   `json:"names,omitempty"`
}

// jsonlWriter serializes response lines from concurrent job watchers.
type jsonlWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (w *jsonlWriter) send(resp JSONLResponse) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.enc.Encode(resp)
}

// ServeJSONL runs the JSONL protocol over the given reader and writer
// until EOF, a read error, or ctx cancellation (jobs submitted here
// still live on the server's context). The final result line of every
// submitted job is written before ServeJSONL returns. Input is read on
// a side goroutine so cancellation — modisd's SIGTERM path — unblocks
// the loop even while the reader waits on an idle stdin; that reader
// goroutine may linger in its blocked read until the process exits or
// the input closes, which is fine for the shutdown paths that use it.
func (s *Server) ServeJSONL(ctx context.Context, in io.Reader, out io.Writer) error {
	w := &jsonlWriter{enc: json.NewEncoder(out)}
	var jobs sync.WaitGroup
	defer jobs.Wait()

	lines := make(chan []byte)
	readErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			select {
			case lines <- line:
			case <-ctx.Done():
				return
			}
		}
		readErr <- sc.Err()
		close(lines)
	}()

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case line, ok := <-lines:
			if !ok {
				return <-readErr
			}
			if len(line) == 0 {
				continue
			}
			var req JSONLRequest
			if err := json.Unmarshal(line, &req); err != nil {
				w.send(JSONLResponse{Kind: "error", Error: fmt.Sprintf("serve: malformed request line: %v", err)})
				continue
			}
			s.serveJSONLOp(ctx, w, req, &jobs)
		}
	}
}

func (s *Server) serveJSONLOp(ctx context.Context, w *jsonlWriter, req JSONLRequest, jobs *sync.WaitGroup) {
	fail := func(err error) {
		w.send(JSONLResponse{Kind: "error", Tag: req.Tag, JobID: req.JobID, Error: err.Error()})
	}
	switch req.Op {
	case "submit":
		rec, replayed, err := s.Submit(req.SubmitRequest)
		if err != nil {
			fail(err)
			return
		}
		accepted := s.sched.statusOf(rec)
		accepted.Replayed = replayed
		w.send(JSONLResponse{Kind: "accepted", Tag: req.Tag, JobID: rec.ID, Status: accepted})
		job := rec.Live()
		if job == nil {
			// A replayed key resolved to an archived job: it is already
			// terminal, so the result line follows immediately.
			w.send(JSONLResponse{Kind: "result", Tag: req.Tag, JobID: rec.ID, Status: s.sched.statusOf(rec)})
			return
		}
		jobs.Add(1)
		go func() {
			defer jobs.Done()
			if req.Stream {
				for ev := range job.EventsContext(ctx) {
					w.send(JSONLResponse{Kind: "event", Tag: req.Tag, JobID: job.ID(), Event: &ev})
				}
			}
			select {
			case <-job.Done():
			case <-ctx.Done():
				return
			}
			w.send(JSONLResponse{Kind: "result", Tag: req.Tag, JobID: job.ID(), Status: s.sched.statusOf(rec)})
		}()
	case "status":
		rec, ok := s.sched.Job(req.JobID)
		if !ok {
			fail(fmt.Errorf("serve: unknown job %q", req.JobID))
			return
		}
		w.send(JSONLResponse{Kind: "status", Tag: req.Tag, JobID: req.JobID, Status: s.sched.statusOf(rec)})
	case "cancel":
		rec, ok := s.sched.Job(req.JobID)
		if !ok {
			fail(fmt.Errorf("serve: unknown job %q", req.JobID))
			return
		}
		rec.Cancel() // archived records are already terminal
		w.send(JSONLResponse{Kind: "status", Tag: req.Tag, JobID: req.JobID, Status: s.sched.statusOf(rec)})
	case "wait":
		rec, ok := s.sched.Job(req.JobID)
		if !ok {
			fail(fmt.Errorf("serve: unknown job %q", req.JobID))
			return
		}
		jobs.Add(1)
		go func() {
			defer jobs.Done()
			select {
			case <-rec.Done(): // immediate for archived records
				w.send(JSONLResponse{Kind: "result", Tag: req.Tag, JobID: req.JobID, Status: s.sched.statusOf(rec)})
			case <-ctx.Done():
			}
		}()
	case "workloads":
		w.send(JSONLResponse{Kind: "workloads", Tag: req.Tag, Names: s.sched.WorkloadNames()})
	case "algorithms":
		w.send(JSONLResponse{Kind: "algorithms", Tag: req.Tag, Names: modis.Algorithms()})
	default:
		fail(fmt.Errorf("serve: unknown op %q", req.Op))
	}
}
