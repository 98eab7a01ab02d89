package summary

import (
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
)

const indexSrc = `
int g;
int m;
int buf[8];

void leaf(int x) { g = g + x; }

void helper(int n) {
    lock(&m);
    leaf(n);
    unlock(&m);
}

void worker(int id) {
    helper(id);
    buf[id] = id;
}

int main(void) {
    int t = spawn(worker, 1);
    helper(0);
    join(t);
    return g;
}
`

func buildIndex(t *testing.T, src string) *Indexer {
	t.Helper()
	file, err := parser.Parse("idx", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(file)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	pta := pointsto.Analyze(info)
	cg := callgraph.Build(info, pta)
	return NewIndexer(info, pta, cg)
}

func TestIndexerKeysEveryFunction(t *testing.T) {
	ix := buildIndex(t, indexSrc)
	for _, fn := range []string{"leaf", "helper", "worker", "main"} {
		if _, ok := ix.FuncKey(fn); !ok {
			t.Errorf("%s has no key", fn)
		}
	}
	if _, ok := ix.FuncKey("missing"); ok {
		t.Error("key for undeclared function")
	}
}

// Whitespace and comment shifts must not change any key: keys hash the
// canonical print, not the source text.
func TestIndexerWhitespaceInvariant(t *testing.T) {
	a := buildIndex(t, indexSrc)
	b := buildIndex(t, "\n\n"+strings.ReplaceAll(indexSrc, "    ", "\t"))
	for _, fn := range []string{"leaf", "helper", "worker", "main"} {
		ka, _ := a.FuncKey(fn)
		kb, _ := b.FuncKey(fn)
		if ka != kb {
			t.Errorf("%s key changed under reformatting", fn)
		}
	}
}

// Editing a leaf dirties exactly the leaf and its transitive callers;
// spawn edges do not propagate (the spawner's summary does not include
// the spawned body).
func TestIndexerEditCone(t *testing.T) {
	a := buildIndex(t, indexSrc)
	b := buildIndex(t, strings.Replace(indexSrc, "g = g + x;", "g = g + x + 1;", 1))
	changed := map[string]bool{"leaf": true, "helper": true, "worker": true, "main": true}
	for fn, want := range changed {
		ka, _ := a.FuncKey(fn)
		kb, _ := b.FuncKey(fn)
		if (ka != kb) != want {
			t.Errorf("%s: key changed=%v, want %v", fn, ka != kb, want)
		}
	}

	// Editing the spawned worker's own access must NOT dirty main: the
	// spawn edge is excluded from summary composition.
	c := buildIndex(t, strings.Replace(indexSrc, "buf[id] = id;", "buf[id] = id + 1;", 1))
	for fn, want := range map[string]bool{"leaf": false, "helper": false, "worker": true, "main": false} {
		ka, _ := a.FuncKey(fn)
		kc, _ := c.FuncKey(fn)
		if (ka != kc) != want {
			t.Errorf("spawn cone %s: key changed=%v, want %v", fn, ka != kc, want)
		}
	}
}

// A referenced global's declaration is part of a function's prelude; an
// unreferenced new global is not.
func TestIndexerGlobalPrelude(t *testing.T) {
	a := buildIndex(t, indexSrc)
	// Change g's initializer: every function naming g must change.
	b := buildIndex(t, strings.Replace(indexSrc, "int g;", "int g = 3;", 1))
	if ka, _ := a.FuncKey("leaf"); func() Key { k, _ := b.FuncKey("leaf"); return k }() == ka {
		t.Error("leaf key unchanged although its referenced global changed")
	}
	// Append an unreferenced global: no keys change.
	c := buildIndex(t, indexSrc+"\nint unused_extra;\n")
	for _, fn := range []string{"leaf", "helper", "worker", "main"} {
		ka, _ := a.FuncKey(fn)
		kc, _ := c.FuncKey(fn)
		if ka != kc {
			t.Errorf("%s key changed when an unreferenced global was added", fn)
		}
	}
}

func TestIndexerNodeRefRoundTrip(t *testing.T) {
	ix := buildIndex(t, indexSrc)
	info := ix.Info()
	for _, fi := range info.FuncList {
		fn, ord, ok := ix.NodeRef(fi.Decl.ID())
		if !ok || fn != fi.Name || ord != 0 {
			t.Fatalf("%s decl ref = (%s,%d,%v), want (%s,0,true)", fi.Name, fn, ord, ok, fi.Name)
		}
		n, ok := ix.NodeAt(fn, ord)
		if !ok || n.ID() != fi.Decl.ID() {
			t.Fatalf("%s decl did not round-trip", fi.Name)
		}
	}
	if _, ok := ix.NodeAt("leaf", 1<<20); ok {
		t.Error("out-of-range ordinal resolved")
	}
}

func TestIndexerCanonicalObjectKeys(t *testing.T) {
	ix := buildIndex(t, indexSrc)
	pta := ixPTA(t, ix)
	seen := make(map[string]bool)
	for i, o := range pta.Objects {
		k := ix.ObjKey(pointsto.ObjID(i))
		if k == "" {
			t.Errorf("object %d (%v) unkeyable", i, o.Kind)
			continue
		}
		if seen[k] {
			t.Errorf("duplicate canonical key %q", k)
		}
		seen[k] = true
		back, ok := ix.ObjByKey(k)
		if !ok || back != pointsto.ObjID(i) {
			t.Errorf("key %q did not round-trip", k)
		}
	}
	for _, want := range []string{"G#g", "G#m", "G#buf"} {
		if !seen[want] {
			t.Errorf("missing canonical key %q (have %v)", want, seen)
		}
	}
}

// ixPTA re-derives the analysis the indexer was built over (test helper:
// the indexer does not expose it).
func ixPTA(t *testing.T, ix *Indexer) *pointsto.Analysis {
	t.Helper()
	return pointsto.Analyze(ix.Info())
}
