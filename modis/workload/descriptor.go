// Package workload defines the canonical serialized identity of a
// discovery workload: a [Descriptor] captures everything that
// determines a workload's search behavior — source tables, universal
// schema, task, model family, measures, encoder options, UDF registry
// fingerprint — and hashes it into a stable content address
// ([Descriptor.Hash]). The hash is what the fleet routes on: the
// serving scheduler keys engines, pool queues, and persisted state by it
// (state-dir/<hash>/…), and the modisproxy consistent-hashes it across
// nodes, so two daemons that build the same workload agree on its
// identity without sharing a process.
//
// The hash contract: it is computed from the normalized descriptor's
// canonical JSON; the display Name is excluded, set-valued fields
// (encoder skip/protected lists) are sorted, and order-significant
// fields (measures, attributes, tables) are hashed as given. Descriptors built by the same constructor from
// the same inputs hash identically across processes and restarts.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/fst"
	"repro/internal/table"
)

// Version is the current descriptor format version, part of every
// descriptor's hash.
const Version = 1

// TableDigest is the content address of one source table: its shape
// and a SHA-256 over schema and cells (the table's display name is
// excluded, so renaming a CSV file does not change workload identity).
type TableDigest struct {
	Name string `json:"name,omitempty"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	SHA  string `json:"sha256"`
}

// EncoderOptions are the space/encoder knobs that shape the search
// space and therefore belong to workload identity.
type EncoderOptions struct {
	// AdomK caps the cluster literals derived per attribute.
	AdomK int `json:"adom_k,omitempty"`
	// SkipLiterals lists attributes contributing no literal entries
	// (set semantics: sorted before hashing).
	SkipLiterals []string `json:"skip_literals,omitempty"`
	// Protected lists attributes no operator may mask (set semantics).
	Protected []string `json:"protected,omitempty"`
}

// SurrogateOptions fingerprint the estimator schedule, which changes
// which states are valuated exactly and is therefore identity.
type SurrogateOptions struct {
	WarmupExact int `json:"warmup_exact"`
	ExactEvery  int `json:"exact_every"`
}

// Descriptor is the canonical serialized form of one workload. Field
// order below is the canonical JSON field order (encoding/json emits
// struct fields in declaration order); Hash depends on it staying
// append-only.
type Descriptor struct {
	// Version is the descriptor format version (always [Version]).
	Version int `json:"version"`
	// Name is the catalog display name. It is excluded from the hash:
	// two fleets may expose the same workload under different names and
	// still share shard identity.
	Name string `json:"name,omitempty"`
	// Task identifies the constructor: "t1".."t5" for built-in paper
	// tasks, "custom" for CSV-backed workloads, "inline" for
	// descriptors derived from an already-built config.
	Task string `json:"task"`
	// Rows is the task's row scale (built-in tasks; 0 where the
	// constructor has no row knob).
	Rows int `json:"rows,omitempty"`
	// Tables digests the source tables D, in construction order.
	Tables []TableDigest `json:"tables,omitempty"`
	// Universal digests the compressed universal table D_U the search
	// actually runs over — the strongest single identity component.
	Universal TableDigest `json:"universal"`
	// Attributes lists the universal non-target columns as
	// "name:kind", in schema order (order is significant: it fixes the
	// bitmap entry layout).
	Attributes []string `json:"attributes"`
	// Target is the attribute the task model predicts.
	Target string `json:"target"`
	// Model names the task model family.
	Model string `json:"model"`
	// Measures lists the measure names in vector order (order is
	// significant: it is the skyline vector layout).
	Measures []string `json:"measures"`
	// Encoder carries the space/encoder options.
	Encoder EncoderOptions `json:"encoder"`
	// Surrogate is nil when every valuation is exact.
	Surrogate *SurrogateOptions `json:"surrogate,omitempty"`
	// UDFs fingerprints the registered post-materialization operators,
	// in registration order (order is significant: UDFs compose).
	UDFs []string `json:"udfs,omitempty"`
}

// normalized returns the canonical copy the hash is computed over:
// display name zeroed, set-valued fields sorted. Slices are copied
// before sorting; the receiver is never mutated.
func (d *Descriptor) normalized() Descriptor {
	out := *d
	out.Name = ""
	out.Encoder.SkipLiterals = sortedCopy(d.Encoder.SkipLiterals)
	out.Encoder.Protected = sortedCopy(d.Encoder.Protected)
	return out
}

func sortedCopy(xs []string) []string {
	if len(xs) == 0 {
		return nil
	}
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// CanonicalJSON renders the normalized descriptor in canonical byte
// form — the hash input, and the structural-equality witness behind
// the scheduler's hash-collision guard.
func (d *Descriptor) CanonicalJSON() []byte {
	blob, err := json.Marshal(d.normalized())
	if err != nil {
		// A Descriptor is plain data; Marshal cannot fail on one.
		panic(fmt.Sprintf("workload: canonical marshal: %v", err))
	}
	return blob
}

// Hash returns the workload's stable content address: the hex SHA-256
// of the canonical JSON. Equal descriptors — under any display name —
// hash equally.
func (d *Descriptor) Hash() string {
	sum := sha256.Sum256(d.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

// Short returns the 12-character hash prefix used in logs and
// directory listings.
func (d *Descriptor) Short() string { return d.Hash()[:12] }

// DigestTable content-addresses a table: SHA-256 over the schema
// (names and kinds) and every cell in row order, using the cells'
// canonical keys so numerically equal int/float cells digest equally.
// The table's display name is excluded.
func DigestTable(t *table.Table) TableDigest {
	h := sha256.New()
	for _, c := range t.Schema {
		h.Write([]byte(c.Name))
		h.Write([]byte{0x00, byte(c.Kind), 0x1f})
	}
	h.Write([]byte{0x1e})
	for _, r := range t.Rows {
		for _, v := range r {
			h.Write([]byte(v.Key()))
			h.Write([]byte{0x1f})
		}
		h.Write([]byte{0x1e})
	}
	return TableDigest{
		Name: t.Name,
		Rows: t.NumRows(),
		Cols: t.NumCols(),
		SHA:  hex.EncodeToString(h.Sum(nil)),
	}
}

// Describe derives a descriptor from an assembled configuration: the
// universal table is digested, the space's skip/protected structure is
// read back from its entry layout, and the model, measures, and
// surrogate schedule are fingerprinted. Task is "inline" — callers
// that built the config through a named constructor overlay Task,
// Rows, Tables, and AdomK themselves (BuildTask and FromTables do).
//
// Deriving from the built config is what makes fleet identity work:
// two nodes that construct the same workload independently produce the
// same descriptor, hence the same hash, without exchanging bytes.
func Describe(name string, cfg *fst.Config) (*Descriptor, error) {
	if cfg == nil || cfg.Space == nil || cfg.Space.Universal == nil {
		return nil, fmt.Errorf("workload: config has no space to describe")
	}
	sp := cfg.Space
	u := sp.Universal
	d := &Descriptor{
		Version:   Version,
		Name:      name,
		Task:      "inline",
		Universal: DigestTable(u),
		Target:    sp.Target,
	}
	for _, c := range u.Schema {
		if c.Name == sp.Target {
			continue
		}
		d.Attributes = append(d.Attributes, c.Name+":"+c.Kind.String())
		if sp.AttrEntry(c.Name) < 0 {
			d.Encoder.Protected = append(d.Encoder.Protected, c.Name)
		}
		if len(sp.LiteralEntries(c.Name)) == 0 {
			d.Encoder.SkipLiterals = append(d.Encoder.SkipLiterals, c.Name)
		}
	}
	if cfg.Model != nil {
		d.Model = cfg.Model.Name()
	}
	for _, m := range cfg.Measures {
		d.Measures = append(d.Measures, m.Name)
	}
	if cfg.Est != nil {
		d.Surrogate = &SurrogateOptions{WarmupExact: cfg.WarmupExact, ExactEvery: cfg.ExactEvery}
	}
	// UDFs carry no names of their own; fingerprint their count so a
	// config with post-materialization operators never aliases one
	// without. Constructors that know their UDFs by name overlay this.
	for i := 0; i < sp.UDFCount(); i++ {
		d.UDFs = append(d.UDFs, fmt.Sprintf("udf#%d", i))
	}
	return d, nil
}
