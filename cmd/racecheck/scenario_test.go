package main

import (
	"bytes"
	"strings"
	"testing"
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

// The -gen stage trail and verdict line of one small spec per scenario
// family are pinned byte-for-byte, so a refactor of the soundness
// pipeline cannot silently drop, rename or reorder a stage.
// Regenerate with: go test ./cmd/racecheck -run TestGenGolden -update
func TestGenGolden(t *testing.T) {
	for _, spec := range []string{"cache:1:small", "counters:7:small", "pipeline:2:small", "prodcons:3:small", "workpool:4:small"} {
		runGolden(t, []string{"-gen", spec}, "gen_"+strings.SplitN(spec, ":", 2)[0]+".out")
	}
}
