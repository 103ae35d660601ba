package serve

// White-box registration tests: the hash-collision guard needs the
// hash-injection seam (s.register), since genuine SHA-256 collisions
// are not constructible in a test.

import (
	"strings"
	"testing"

	"repro/internal/fst"
	"repro/modis/workload"
)

func regDesc(name, task string) *workload.Descriptor {
	return &workload.Descriptor{Version: workload.Version, Name: name, Task: task, Target: "y", Model: "m"}
}

// TestRegisterCollisionGuard: two descriptors that hash identically
// but differ structurally must be rejected — silently sharing an
// engine would cross-contaminate memoized valuations between genuinely
// different workloads.
func TestRegisterCollisionGuard(t *testing.T) {
	s := NewScheduler(SchedulerOptions{})
	const forced = "feedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedface"
	if err := s.register(regDesc("wl-a", "t1"), &fst.Config{}, forced); err != nil {
		t.Fatal(err)
	}
	err := s.register(regDesc("wl-b", "t2"), &fst.Config{}, forced)
	if err == nil {
		t.Fatal("structurally different descriptors with one hash registered without error")
	}
	if !strings.Contains(err.Error(), "collision") {
		t.Errorf("collision error %q does not name the condition", err)
	}
	// The rejected workload must not have been registered half-way.
	if s.Engine("wl-b") != nil {
		t.Error("rejected registration left an engine behind")
	}
	if got := s.WorkloadInfos(); len(got) != 1 || got[0].Name != "wl-a" {
		t.Errorf("catalog after rejected registration = %v, want wl-a alone", got)
	}
}

// TestRegisterSharesStructurallyEqualShards: the legitimate twin of
// the collision case — same canonical identity under two catalog
// names shares one shard (and the first config's engine and memo).
func TestRegisterSharesStructurallyEqualShards(t *testing.T) {
	s := NewScheduler(SchedulerOptions{})
	a, b := regDesc("first", "t1"), regDesc("second", "t1") // Name is excluded from identity
	if a.Hash() != b.Hash() {
		t.Fatal("fixture broke: renamed descriptors must share a hash")
	}
	if err := s.Register(a, &fst.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(b, &fst.Config{}); err != nil {
		t.Fatal(err)
	}
	if s.Engine("first") == nil || s.Engine("first") != s.Engine("second") {
		t.Error("structurally equal workloads must share one engine")
	}
	shards := s.Shards()
	if len(shards) != 1 || len(shards[0].Workloads) != 2 {
		t.Fatalf("shards = %+v, want one shard holding both names", shards)
	}

	// Idempotent re-registration of the same identity under the same
	// name is a no-op; rebinding the name to a different identity is
	// an error.
	if err := s.Register(regDesc("first", "t1"), &fst.Config{}); err != nil {
		t.Errorf("idempotent re-registration errored: %v", err)
	}
	if err := s.Register(regDesc("first", "t9"), &fst.Config{}); err == nil {
		t.Error("rebinding a catalog name to a different workload must fail")
	}

	// Degenerate inputs fail loudly.
	if err := s.Register(nil, &fst.Config{}); err == nil {
		t.Error("nil descriptor registered")
	}
	if err := s.Register(regDesc("", "t1"), &fst.Config{}); err == nil {
		t.Error("unnamed descriptor registered")
	}
	if err := s.Register(regDesc("third", "t1"), nil); err == nil {
		t.Error("nil config registered")
	}
}
