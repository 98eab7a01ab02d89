package main

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/scenario"
)

// The inputs of every workload are a pure function of the workload seed:
// a splitmix64 stream per (seed, purpose) drives each draw, so the same
// seed yields byte-identical programs and op sequences on every run and
// every machine. The program under test never sees the seed, only the
// programs and job parameters drawn from it.

type rng struct{ state uint64 }

func newRNG(seed uint64, purpose string) *rng {
	h := uint64(1469598103934665603)
	for i := 0; i < len(purpose); i++ {
		h ^= uint64(purpose[i])
		h *= 1099511628211
	}
	return &rng{state: seed ^ h}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

var sizeClasses = []string{"small", "medium", "large"}

// libcEditAnchor is the mini-libc statement the harness's scripted
// incremental edit rewrites (my_checksum's FNV multiplier): changing the
// constant dirties one function and its callers' cone.
const libcEditAnchor = "h = h * 16777619;"

// program is one analysis input: a display name (the positional argument
// of the racecheck request) and its full source.
type program struct {
	Name   string
	Source string
}

// key identifies a program by content; equal keys are equal inputs.
func (p program) key() string { return p.Name + "\x00" + p.Source }

// scenarioProgram generates the scenario of a family, seed and size
// class, optionally with the mini-libc appended as the embedded
// benchmarks carry it. The families and size classes are the scenario
// package's own, so a spec that fails to parse is a bug.
func scenarioProgram(family string, seed uint64, size string, withLibC bool) program {
	spec, err := scenario.Parse(fmt.Sprintf("%s:%d:%s", family, seed, size))
	if err != nil {
		panic(err)
	}
	src := scenario.MustGenerate(spec)
	if withLibC {
		src += "\n" + bench.LibC
	}
	return program{Name: spec.Name() + ".mc", Source: src}
}

// editProgram applies the scripted libc edit with a new multiplier. Every
// program it is given carries the mini-libc, so a missing anchor is a bug.
func editProgram(p program, mult uint64) program {
	edited := strings.Replace(p.Source, libcEditAnchor, fmt.Sprintf("h = h * %d;", mult), 1)
	if edited == p.Source {
		panic(fmt.Sprintf("%s: edit anchor %q not present", p.Name, libcEditAnchor))
	}
	return program{Name: p.Name, Source: edited}
}

// Analyze op kinds.
const (
	opFresh  = "fresh"
	opRepeat = "repeat"
	opEdit   = "edit"
)

// analyzeOp is one analyze job of a client's sequence.
type analyzeOp struct {
	Kind string
	Prog program
}

// analyzePlan yields one client's analyze op sequence in blocks of
// four ops, shuffled per block: two submit a program the client's tenant
// has never seen (a scenario with a fresh seed, or one of the nine paper
// sources, each once), one re-submits an earlier program byte-for-byte
// (a whole-program cache hit), and one re-submits an earlier base
// program with the libc edit applied under a new multiplier
// (summary-store reuse outside the dirty cone). Fresh scenarios cycle
// through every family × size combination in shuffled blocks, so every
// seed draws the same mix.
type analyzePlan struct {
	draw   *rng
	kinds  []string
	combos combos
	papers []*bench.Benchmark // paper sources not yet used, in draw order
	seen   map[uint64]bool    // scenario seeds already used
	edits  map[string]bool    // edited program keys already used
	bases  []program          // fresh programs submitted so far
	all    []program          // every program submitted so far
}

func newAnalyzePlan(seed uint64, client int) *analyzePlan {
	p := &analyzePlan{
		draw:  newRNG(seed, fmt.Sprintf("analyze/client%d", client)),
		seen:  make(map[uint64]bool),
		edits: make(map[string]bool),
	}
	p.combos.draw = p.draw
	p.papers = bench.All()
	shuffle(p.draw, len(p.papers), func(i, j int) { p.papers[i], p.papers[j] = p.papers[j], p.papers[i] })
	return p
}

func shuffle(r *rng, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// combos deals family × size combinations in shuffled blocks.
type combos struct {
	draw  *rng
	block [][2]string
}

func (c *combos) next() (family, size string) {
	if len(c.block) == 0 {
		for _, f := range scenario.Families {
			for _, s := range sizeClasses {
				c.block = append(c.block, [2]string{f, s})
			}
		}
		shuffle(c.draw, len(c.block), func(i, j int) { c.block[i], c.block[j] = c.block[j], c.block[i] })
	}
	fs := c.block[0]
	c.block = c.block[1:]
	return fs[0], fs[1]
}

// next returns the client's next op.
func (p *analyzePlan) next() analyzeOp {
	if len(p.kinds) == 0 {
		p.kinds = []string{opFresh, opFresh, opRepeat, opEdit}
		shuffle(p.draw, len(p.kinds), func(i, j int) { p.kinds[i], p.kinds[j] = p.kinds[j], p.kinds[i] })
	}
	kind := p.kinds[0]
	p.kinds = p.kinds[1:]
	if len(p.bases) == 0 {
		kind = opFresh
	}
	switch kind {
	case opFresh:
		prog := p.fresh()
		p.bases = append(p.bases, prog)
		p.all = append(p.all, prog)
		return analyzeOp{Kind: opFresh, Prog: prog}
	case opRepeat:
		return analyzeOp{Kind: opRepeat, Prog: p.all[p.draw.intn(len(p.all))]}
	}
	base := p.bases[p.draw.intn(len(p.bases))]
	for {
		prog := editProgram(base, 1<<20+p.draw.next()%(1<<24))
		if !p.edits[prog.key()] && prog.Source != base.Source {
			p.edits[prog.key()] = true
			p.all = append(p.all, prog)
			return analyzeOp{Kind: opEdit, Prog: prog}
		}
	}
}

// fresh draws a never-submitted program: one of the nine paper sources
// (each used once, mixed in at a rate of one in eight fresh draws while
// they last) or the next family × size combination with an unused
// scenario seed.
func (p *analyzePlan) fresh() program {
	if len(p.papers) > 0 && p.draw.intn(8) == 0 {
		b := p.papers[0]
		p.papers = p.papers[1:]
		return program{Name: b.Name + ".mc", Source: b.FullSource()}
	}
	fam, size := p.combos.next()
	var s uint64
	for s == 0 || p.seen[s] {
		s = p.draw.next() % 1_000_000_000
	}
	p.seen[s] = true
	return scenarioProgram(fam, s, size, true)
}

// recordOp is one record job plus its replay-verify of a client's
// sequence. Wire replays download the log and upload it into a fresh
// replay-verify job; the others replay the server's spool.
type recordOp struct {
	Prog       program
	RecordSeed uint64
	Wire       bool
}

// recordPlan yields one client's record-replay op sequence. Programs come
// from a fixed seeded pool, recordPoolSeeds scenario seeds for every
// family × size combination; ops cycle through the combinations in
// shuffled blocks. The static analysis thus runs about once per program
// while the VM runs once per record and once per replay.
type recordPlan struct {
	draw   *rng
	combos combos
	pool   map[[2]string][]program
	seeds  map[uint64]bool
	k      int
}

const recordPoolSeeds = 2

func newRecordPlan(seed uint64, client int) *recordPlan {
	p := &recordPlan{
		draw:  newRNG(seed, fmt.Sprintf("record-replay/client%d", client)),
		pool:  make(map[[2]string][]program),
		seeds: make(map[uint64]bool),
	}
	p.combos.draw = p.draw
	poolDraw := newRNG(seed, "record-replay/pool")
	for _, fam := range scenario.Families {
		for _, size := range sizeClasses {
			for i := 0; i < recordPoolSeeds; i++ {
				k := [2]string{fam, size}
				p.pool[k] = append(p.pool[k], scenarioProgram(fam, 1+poolDraw.next()%1_000_000_000, size, false))
			}
		}
	}
	return p
}

func (p *recordPlan) next() recordOp {
	fam, size := p.combos.next()
	progs := p.pool[[2]string{fam, size}]
	op := recordOp{Prog: progs[p.draw.intn(len(progs))], Wire: p.k%4 == 3}
	p.k++
	for op.RecordSeed == 0 || p.seeds[op.RecordSeed] {
		op.RecordSeed = p.draw.next() % (1 << 40)
	}
	p.seeds[op.RecordSeed] = true
	return op
}
