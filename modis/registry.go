package modis

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fst"
)

// algorithm is one search algorithm: the context is checked at
// frontier-pop granularity, and the result carries the ε-skyline set
// plus run stats. The options arrive resolved, to be read as given:
// core.DefaultOptions for the configuration's measures (the last one
// decisive) overridden by the run's options, the decisive index
// range-checked, ExactRunner set to a pool queue when
// [WithParallelism] asks for more than one worker and no runner is
// installed, and Progress set to the job's event stream.
type algorithm func(ctx context.Context, cfg *fst.Config, opts core.Options) (*core.Result, error)

// algorithms are the paper's five search algorithms by canonical key.
var algorithms = map[string]algorithm{
	"apx":   core.ApxMODis,
	"bi":    core.BiMODis,
	"nobi":  core.NOBiMODis,
	"div":   core.DivMODis,
	"exact": core.ExactMODis,
}

// Algorithms lists the canonical algorithm keys, sorted.
func Algorithms() []string {
	out := make([]string, 0, len(algorithms))
	for k := range algorithms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// UnknownAlgorithmError reports a run request naming an algorithm the
// engine does not know. It always carries the canonical keys, so
// callers — and wire layers like modis/serve, which maps it to HTTP 400
// with the same message as its body — can tell users what would have
// been accepted instead of a bare "unknown algorithm".
type UnknownAlgorithmError struct {
	// Name is the algorithm the caller asked for, as given.
	Name string
	// Known are the canonical keys, sorted.
	Known []string
}

func (e *UnknownAlgorithmError) Error() string {
	return fmt.Sprintf("modis: unknown algorithm %q (known: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// lookup resolves an algorithm name (case-insensitive, surrounding
// space ignored) to its function and canonical key.
func lookup(name string) (algorithm, string, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if fn, ok := algorithms[key]; ok {
		return fn, key, nil
	}
	return nil, "", &UnknownAlgorithmError{Name: name, Known: Algorithms()}
}
