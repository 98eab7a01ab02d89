package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestGenSoundSpec: -gen on a passing spec prints the stage trail and
// exits 0; -v additionally prints the generated source.
func TestGenSoundSpec(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-gen", "counters:7:small"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{
		"stages passed: generate → analyze → incremental → instrument → certify → record → replay → differential → clean",
		"soundness pipeline: ok",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"-v", "-gen", "counters:7:small"}, &out, &errOut); code != 0 {
		t.Fatalf("-v exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "int main(void)") {
		t.Errorf("-v output lacks generated source:\n%s", out.String())
	}
}

// TestGenBadSpecExitsTwo: an invalid spec is a usage error with the
// deterministic validation diagnostic.
func TestGenBadSpecExitsTwo(t *testing.T) {
	for _, spec := range []string{"bogus:1:small", "cache:1:t0", "cache:nope:small"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-gen", spec}, &out, &errOut); code != 2 {
			t.Errorf("-gen %q: exit %d, want 2 (stderr: %s)", spec, code, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-gen", "cache:1:small", "-dynamic"}, &out, &errOut); code != 2 {
		t.Errorf("-gen with -dynamic: exit %d, want 2", code)
	}
}

// TestBatchMissingDirExitsFour pins the distinct failure class for an
// unusable -batch corpus: nonexistent directory, file-not-directory, and
// directory without *.mc files all exit 4 with a clear message.
func TestBatchMissingDirExitsFour(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-batch", filepath.Join(t.TempDir(), "nope")}, &out, &errOut); code != 4 {
		t.Errorf("nonexistent dir: exit %d, want 4 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "does not exist") {
		t.Errorf("nonexistent dir: stderr lacks diagnosis: %s", errOut.String())
	}

	errOut.Reset()
	if code := run([]string{"-batch", t.TempDir()}, &out, &errOut); code != 4 {
		t.Errorf("empty dir: exit %d, want 4 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "contains no *.mc files") {
		t.Errorf("empty dir: stderr lacks diagnosis: %s", errOut.String())
	}

	errOut.Reset()
	file := filepath.Join(t.TempDir(), "f.mc")
	if err := os.WriteFile(file, []byte("int main() { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-batch", file}, &out, &errOut); code != 4 {
		t.Errorf("file target: exit %d, want 4 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "is not a directory") {
		t.Errorf("file target: stderr lacks diagnosis: %s", errOut.String())
	}
}

// TestBatchGeneratedCorpusIncrementalEquivalence emits a generated
// family into a temp dir (including one byte-identical duplicate) and
// runs -batch twice: both invocations must print byte-identical reports,
// and the duplicate file must analyze with every per-function summary
// reused from the store its twin populated.
func TestBatchGeneratedCorpusIncrementalEquivalence(t *testing.T) {
	dir := t.TempDir()
	var specs []scenario.Spec
	for seed := uint64(1); seed <= 3; seed++ {
		sp, err := scenario.Parse(fmt.Sprintf("workpool:%d:small", seed))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	for _, sp := range specs {
		src := scenario.MustGenerate(sp)
		if err := os.WriteFile(filepath.Join(dir, sp.Name()+".mc"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A byte-identical copy of the first program under another name: its
	// whole RELAY walk must come out of the shared summary store.
	dup := scenario.MustGenerate(specs[0])
	if err := os.WriteFile(filepath.Join(dir, "zz_duplicate.mc"), []byte(dup), 0o644); err != nil {
		t.Fatal(err)
	}

	runOnce := func() string {
		var out, errOut bytes.Buffer
		if code := run([]string{"-batch", dir, "-summary-stats"}, &out, &errOut); code != 0 {
			t.Fatalf("batch exit %d, stderr: %s", code, errOut.String())
		}
		return out.String()
	}
	first := runOnce()
	second := runOnce()
	if first != second {
		t.Errorf("batch runs diverged:\n--- first ---\n%s--- second ---\n%s", first, second)
	}

	var dupLine string
	for _, line := range strings.Split(first, "\n") {
		if strings.Contains(line, "zz_duplicate.mc") {
			dupLine = line
		}
	}
	if dupLine == "" {
		t.Fatalf("no zz_duplicate.mc line in output:\n%s", first)
	}
	// Full reuse renders as [summaries: N/N reused].
	open := strings.Index(dupLine, "[summaries: ")
	if open < 0 {
		t.Fatalf("duplicate line lacks summary stats: %q", dupLine)
	}
	var reused, total int
	if _, err := fmt.Sscanf(dupLine[open:], "[summaries: %d/%d reused]", &reused, &total); err != nil {
		t.Fatalf("unparseable summary stats in %q: %v", dupLine, err)
	}
	if total == 0 || reused != total {
		t.Errorf("duplicate of an already-analyzed program reused %d/%d summaries, want full reuse\n%s", reused, total, first)
	}
	if !strings.Contains(first, "summary store:") {
		t.Errorf("-summary-stats output missing store counters:\n%s", first)
	}
}

// The -gen stage trail and verdict line of one small spec per scenario
// family are pinned byte-for-byte, so a refactor of the soundness
// pipeline cannot silently drop, rename or reorder a stage.
// Regenerate with: go test ./cmd/racecheck -run TestGenGolden -update
func TestGenGolden(t *testing.T) {
	for _, spec := range []string{"cache:1:small", "counters:7:small", "pipeline:2:small", "prodcons:3:small", "workpool:4:small"} {
		runGolden(t, []string{"-gen", spec}, "gen_"+strings.SplitN(spec, ":", 2)[0]+".out")
	}
}
