// Package scenario synthesizes MiniC concurrency workloads from compact,
// seeded specifications — and turns every generated program into a
// soundness obligation for the whole Chimera pipeline.
//
// A Spec maps to exactly one program: generation draws every choice from
// a splitmix64 PRNG seeded by Spec.Seed, iterates only over slices and
// integer ranges (never Go maps), and never consults the clock, so the
// same Spec produces byte-identical source on every run, on every
// GOMAXPROCS, on every platform. That is the same determinism contract
// the analysis pipeline itself is held to (PR 2), extended to the test
// workload supply.
//
// Five families cover the synchronization shapes the embedded benchmarks
// only sample:
//
//	prodcons   producer–consumer meshes: P producers feed Q mutex+condvar
//	           queues drained by C consumers, sentinel-terminated
//	workpool   a work-stealing pool: workers drain private chunks of a
//	           task array, then steal from a shared tail index
//	pipeline   a chain of stages connected by bounded handoff queues,
//	           each stage transforming and forwarding sentinel-terminated
//	           streams
//	cache      a reader-heavy shared cache: tagged slots, demand fill,
//	           hit counters, keys drawn from the recorded rnd() stream
//	counters   striped counters: threads scatter increments over locked
//	           stripes plus an unstriped racy total
//
// LockDensity controls, per generated access site, the probability that
// the site is lock-guarded — 100 yields a data-race-free program, 0 a
// maximally racy one, anything between a mix of protected and racy
// sites. Racy sites are exactly what the weak-lock instrumentation is
// for, so generated programs exercise RELAY, MHP, instrumentation,
// certification, record/replay and both dynamic checkers at sizes and
// shapes the nine fixed benchmarks cannot.
//
// RunPipeline (pipeline.go) is the soundness harness: every generated
// program must analyze (fresh and incremental, byte-identically),
// instrument, certify clean, record, replay bit-identically, and produce
// identical epoch-vs-vector race verdicts. Any divergence is reported as
// a minimized, reproducible Spec.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// Families lists the generator families in canonical order.
var Families = []string{"cache", "counters", "pipeline", "prodcons", "workpool"}

// Spec limits. Validation fails closed outside them.
const (
	MaxThreads = 8
	MaxShared  = 64
	MaxOps     = 4096
)

// Spec is a complete, deterministic description of one generated
// program. Same Spec → byte-identical source.
type Spec struct {
	Family string // one of Families
	Seed   uint64 // drives every generation-time choice

	Threads     int // worker threads (prodcons/pipeline need ≥ 2)
	Shared      int // shared slots / stripes / queues, family-interpreted
	Ops         int // operations per worker thread
	LockDensity int // 0..100: % chance each generated access site is lock-guarded
}

// sizes maps the shorthand size classes of the spec grammar to
// parameter presets.
var sizes = map[string]Spec{
	"small":  {Threads: 2, Shared: 4, Ops: 16, LockDensity: 60},
	"medium": {Threads: 4, Shared: 8, Ops: 96, LockDensity: 60},
	"large":  {Threads: 8, Shared: 16, Ops: 512, LockDensity: 60},
}

// Validate reports the first violated constraint, with a deterministic
// message suitable for golden-testing the fail-closed paths.
func (s Spec) Validate() error {
	okFamily := false
	for _, f := range Families {
		if s.Family == f {
			okFamily = true
			break
		}
	}
	if !okFamily {
		return fmt.Errorf("scenario: unknown family %q (want one of %s)", s.Family, strings.Join(Families, ", "))
	}
	minThreads := 1
	if s.Family == "prodcons" || s.Family == "pipeline" {
		minThreads = 2
	}
	if s.Threads < minThreads || s.Threads > MaxThreads {
		return fmt.Errorf("scenario: %s: threads must be in [%d,%d], got %d", s.Family, minThreads, MaxThreads, s.Threads)
	}
	if s.Shared < 1 || s.Shared > MaxShared {
		return fmt.Errorf("scenario: %s: shared must be in [1,%d], got %d", s.Family, MaxShared, s.Shared)
	}
	if s.Ops < 1 || s.Ops > MaxOps {
		return fmt.Errorf("scenario: %s: ops must be in [1,%d], got %d", s.Family, MaxOps, s.Ops)
	}
	if s.LockDensity < 0 || s.LockDensity > 100 {
		return fmt.Errorf("scenario: %s: lock density must be in [0,100], got %d", s.Family, s.LockDensity)
	}
	return nil
}

// String renders the canonical spec form: family:seed:tT,sS,oO,lL.
// Parse(s.String()) == s for every valid spec.
func (s Spec) String() string {
	return fmt.Sprintf("%s:%d:t%d,s%d,o%d,l%d", s.Family, s.Seed, s.Threads, s.Shared, s.Ops, s.LockDensity)
}

// Name is the file- and benchmark-safe identifier of the spec.
func (s Spec) Name() string {
	return fmt.Sprintf("%s_%d_t%ds%do%dl%d", s.Family, s.Seed, s.Threads, s.Shared, s.Ops, s.LockDensity)
}

// Parse decodes the spec grammar:
//
//	SPEC   := family ":" seed ":" size
//	family := cache | counters | pipeline | prodcons | workpool
//	seed   := decimal uint64
//	size   := "small" | "medium" | "large" | params
//	params := param ("," param)*          e.g.  t4,s8,o128,l50
//	param  := ("t"|"s"|"o"|"l") decimal   (threads, shared, ops, lock density;
//	                                       omitted params default to "small")
//
// Parsing is strict and fail-closed: unknown families, duplicate or
// unknown parameter keys, malformed numbers and out-of-range values all
// produce deterministic errors.
func Parse(text string) (Spec, error) {
	parts := strings.Split(text, ":")
	if len(parts) != 3 {
		return Spec{}, fmt.Errorf("scenario: spec %q: want family:seed:size", text)
	}
	spec := Spec{Family: parts[0]}
	seed, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: spec %q: bad seed %q", text, parts[1])
	}
	spec.Seed = seed

	if preset, ok := sizes[parts[2]]; ok {
		spec.Threads, spec.Shared, spec.Ops, spec.LockDensity =
			preset.Threads, preset.Shared, preset.Ops, preset.LockDensity
	} else {
		preset := sizes["small"]
		spec.Threads, spec.Shared, spec.Ops, spec.LockDensity =
			preset.Threads, preset.Shared, preset.Ops, preset.LockDensity
		seen := map[byte]bool{}
		for _, p := range strings.Split(parts[2], ",") {
			if len(p) < 2 {
				return Spec{}, fmt.Errorf("scenario: spec %q: bad parameter %q", text, p)
			}
			key := p[0]
			n, err := strconv.Atoi(p[1:])
			if err != nil {
				return Spec{}, fmt.Errorf("scenario: spec %q: bad parameter value %q", text, p)
			}
			if seen[key] {
				return Spec{}, fmt.Errorf("scenario: spec %q: duplicate parameter %q", text, string(key))
			}
			seen[key] = true
			switch key {
			case 't':
				spec.Threads = n
			case 's':
				spec.Shared = n
			case 'o':
				spec.Ops = n
			case 'l':
				spec.LockDensity = n
			default:
				return Spec{}, fmt.Errorf("scenario: spec %q: unknown parameter key %q", text, string(key))
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// ParseList decodes a comma-free list of specs separated by ";" or
// whitespace (flag-friendly: -scenario "a:1:small;b:2:medium").
func ParseList(text string) ([]Spec, error) {
	var out []Spec
	for _, f := range strings.FieldsFunc(text, func(r rune) bool { return r == ';' || r == ' ' }) {
		s, err := Parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: empty spec list %q", text)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Seeded PRNG: splitmix64. Deliberately not math/rand — the stream is
// part of the spec-to-source contract and must never drift with the Go
// version.

type prng struct{ state uint64 }

// newPRNG derives an independent stream per (seed, purpose) pair so
// adding a draw to one generation site never shifts another family's
// stream.
func newPRNG(seed uint64, purpose string) *prng {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(purpose); i++ {
		h ^= uint64(purpose[i])
		h *= 1099511628211
	}
	return &prng{state: seed ^ h}
}

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (p *prng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(p.next() % uint64(n))
}

// pct returns true with probability density/100.
func (p *prng) pct(density int) bool {
	return p.intn(100) < density
}

// odd returns a small odd constant in [lo, hi] (odd multipliers keep
// generated index walks full-period over power-of-two ranges).
func (p *prng) odd(lo, hi int) int {
	v := lo + p.intn(hi-lo+1)
	if v%2 == 0 {
		v++
	}
	if v > hi {
		v = lo | 1
	}
	return v
}
