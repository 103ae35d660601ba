package modis

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fst"
)

// AlgorithmFunc is a registrable search algorithm: the context is
// checked at frontier-pop granularity, and the result carries the
// ε-skyline set plus run stats. The options arrive resolved, to be read
// as given: core.DefaultOptions for the configuration's measures (the
// last one decisive) overridden by the run's options, the decisive
// index range-checked, ExactRunner set to a pool queue when
// [WithParallelism] asks for more than one worker and no runner is
// installed, and Progress set to the job's event stream.
type AlgorithmFunc func(ctx context.Context, cfg *fst.Config, opts core.Options) (*core.Result, error)

var (
	regMu    sync.RWMutex
	registry = map[string]AlgorithmFunc{}
)

func init() {
	mustRegister("apx", core.ApxMODis)
	mustRegister("bi", core.BiMODis)
	mustRegister("nobi", core.NOBiMODis)
	mustRegister("div", core.DivMODis)
	mustRegister("exact", core.ExactMODis)
}

// Register adds an algorithm under a new key (case-insensitive). It
// rejects empty keys and keys already taken.
// Every run of the key calls fn with the resolved options described on
// AlgorithmFunc.
func Register(name string, fn AlgorithmFunc) error {
	key := normalize(name)
	if key == "" {
		return fmt.Errorf("modis: Register: empty algorithm name")
	}
	if fn == nil {
		return fmt.Errorf("modis: Register(%q): nil algorithm", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[key]; ok {
		return fmt.Errorf("modis: Register(%q): already registered", name)
	}
	registry[key] = fn
	return nil
}

func mustRegister(name string, fn AlgorithmFunc) {
	if err := Register(name, fn); err != nil {
		panic(err)
	}
}

// Algorithms lists the registered canonical keys, sorted.
func Algorithms() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return algorithmsLocked()
}

// UnknownAlgorithmError reports a run request naming an algorithm the
// registry does not know. It always carries the registered canonical
// keys, so callers — and wire layers like modis/serve, which maps it
// to HTTP 400 with the same message as its body — can tell users what
// would have been accepted instead of a bare "unknown algorithm".
type UnknownAlgorithmError struct {
	// Name is the algorithm the caller asked for, as given.
	Name string
	// Known are the registered canonical keys, sorted.
	Known []string
}

func (e *UnknownAlgorithmError) Error() string {
	return fmt.Sprintf("modis: unknown algorithm %q (known: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// lookup resolves an algorithm name to its function and canonical key.
func lookup(name string) (AlgorithmFunc, string, error) {
	key := normalize(name)
	regMu.RLock()
	defer regMu.RUnlock()
	if fn, ok := registry[key]; ok {
		return fn, key, nil
	}
	return nil, "", &UnknownAlgorithmError{Name: name, Known: algorithmsLocked()}
}

func algorithmsLocked() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}
