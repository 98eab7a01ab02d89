package service

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// racySrc has a classic unlock-free increment race between two workers.
const racySrc = `int x;
void bump(int id) { x = x + id; }
int main(void) {
    int t1 = spawn(bump, 1);
    int t2 = spawn(bump, 2);
    join(t1);
    join(t2);
    return x;
}
`

// cleanSrc is the barrier-phased program racecheck's goldens use: every
// pair is ordered, so certification succeeds.
const cleanSrc = `int bar;
int data;
void phase_a(int id) { data = id; }
void phase_b(int id) { data = data + id; }
void worker(int id) {
    phase_a(id);
    barrier_wait(&bar);
    phase_b(id);
}
int main(void) {
    barrier_init(&bar, 2);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1);
    join(t2);
    return data;
}
`

// inlineReq builds an analyze request carrying src inline under the
// display path name, with the given extra flag mutations applied.
func inlineReq(name, src string, mut func(*Request)) *Request {
	req := NewRequest()
	req.Args = []string{name}
	req.Source = src
	req.HasSource = true
	if mut != nil {
		mut(req)
	}
	return req
}

// timingRE matches the wall-clock fields of -dynamic output — the only
// part of any verdict that varies between two runs of the *same* path
// (offline-vs-offline included). Everything else must match to the byte.
var timingRE = regexp.MustCompile(`wall=[0-9][^,)]*|checker share: [0-9].*`)

func stripTimings(b []byte) []byte {
	return timingRE.ReplaceAll(b, []byte("T"))
}

// TestRunRequestCacheByteIdentity is the service's core guarantee:
// running a request against a tenant cache (cold or warm) produces
// output byte-identical to the offline CLI path (nil cache), for every
// analysis mode the server accepts. (Timing fields are normalized first;
// they differ even between two offline runs.)
func TestRunRequestCacheByteIdentity(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*Request)
	}{
		{"default", nil},
		{"verbose", func(r *Request) { r.Verbose = true }},
		{"mhp", func(r *Request) { r.MHP = true }},
		{"mhp-precision", func(r *Request) { r.MHP, r.Precision = true, true }},
		{"precision", func(r *Request) { r.Precision = true }},
		{"pairs", func(r *Request) { r.Pairs = true }},
		{"certify", func(r *Request) { r.Certify = true }},
		{"dynamic", func(r *Request) { r.Dynamic = true; r.Seed = 3 }},
		{"parallel", func(r *Request) { r.Parallel = 4 }},
	}
	for _, src := range []struct{ name, text string }{
		{"racy.mc", racySrc},
		{"clean.mc", cleanSrc},
	} {
		cache := core.NewCache()
		for _, v := range variants {
			var offOut, offErr bytes.Buffer
			offCode := RunRequest(inlineReq(src.name, src.text, v.mut), nil, &offOut, &offErr)
			// Two cached runs: the first is cold, the second hits the
			// tenant's whole-program cache. Both must match offline.
			for pass := 0; pass < 2; pass++ {
				var out, errOut bytes.Buffer
				code := RunRequest(inlineReq(src.name, src.text, v.mut), cache, &out, &errOut)
				if code != offCode {
					t.Errorf("%s/%s pass %d: exit %d, offline %d", src.name, v.name, pass, code, offCode)
				}
				if !bytes.Equal(stripTimings(out.Bytes()), stripTimings(offOut.Bytes())) {
					t.Errorf("%s/%s pass %d: stdout diverged from offline:\n--- cached ---\n%s\n--- offline ---\n%s",
						src.name, v.name, pass, out.Bytes(), offOut.Bytes())
				}
				if !bytes.Equal(stripTimings(errOut.Bytes()), stripTimings(offErr.Bytes())) {
					t.Errorf("%s/%s pass %d: stderr diverged from offline:\n--- cached ---\n%s\n--- offline ---\n%s",
						src.name, v.name, pass, errOut.Bytes(), offErr.Bytes())
				}
			}
		}
	}
}

func TestRequestSpecHash(t *testing.T) {
	a := inlineReq("p.mc", racySrc, nil)
	b := inlineReq("p.mc", racySrc, nil)
	if a.SpecHash() != b.SpecHash() {
		t.Fatal("equal requests hash differently")
	}
	c := inlineReq("p.mc", racySrc, func(r *Request) { r.MHP = true })
	if a.SpecHash() == c.SpecHash() {
		t.Fatal("-mhp did not change the spec hash")
	}
	d := inlineReq("p.mc", cleanSrc, nil)
	if a.SpecHash() == d.SpecHash() {
		t.Fatal("different source did not change the spec hash")
	}
}

func TestValidateRemoteRejectsLocalModes(t *testing.T) {
	for _, mut := range []func(*Request){
		func(r *Request) { r.CertOut = "out" },
		func(r *Request) { r.Instrumented = "prog.mc" },
		func(r *Request) { r.TracePath = "t.json" },
		func(r *Request) { r.MetricsPath = "m.json" },
		func(r *Request) { r.ShowCFG = true },
	} {
		req := inlineReq("p.mc", racySrc, mut)
		if err := req.ValidateRemote(); err == nil {
			t.Errorf("local-filesystem mode %+v passed ValidateRemote", req)
		}
	}
	if err := inlineReq("p.mc", racySrc, nil).ValidateRemote(); err != nil {
		t.Errorf("plain analyze rejected: %v", err)
	}
}

func TestJobSpecHashAndValidate(t *testing.T) {
	spec := &JobSpec{Kind: JobAnalyze, Tenant: "a", Request: inlineReq("p.mc", racySrc, nil)}
	if spec.Hash() != (&JobSpec{Kind: JobAnalyze, Tenant: "a", Request: inlineReq("p.mc", racySrc, nil)}).Hash() {
		t.Fatal("equal specs hash differently")
	}
	other := &JobSpec{Kind: JobAnalyze, Tenant: "b", Request: inlineReq("p.mc", racySrc, nil)}
	if spec.Hash() == other.Hash() {
		t.Fatal("tenant did not change the job hash")
	}

	bad := []*JobSpec{
		{Kind: "mystery"},
		{Kind: JobAnalyze},
		{Kind: JobAnalyze, Request: &Request{Args: []string{"local.mc"}}}, // path without inline source
		{Kind: JobRecord},
		{Kind: JobRecord, Source: racySrc, Config: "nope"},
		{Kind: JobReplayVerify},
		{Kind: JobReplayVerify, LogJob: "j1", LogUpload: true},
		{Kind: JobReplayVerify, LogUpload: true}, // upload without source
		{Kind: "gen-pipeline"},                   // folded into analyze jobs with request.gen
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated, want error", s)
		}
	}
	good := []*JobSpec{
		{Kind: JobAnalyze, Request: inlineReq("p.mc", racySrc, nil)},
		{Kind: JobRecord, Source: racySrc},
		{Kind: JobReplayVerify, LogJob: "j000001-abc"},
		{Kind: JobReplayVerify, LogUpload: true, Source: racySrc},
		genSpec("", "counters:7:small"),
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", s, err)
		}
	}
}

// TestLoadFailuresMatchOffline pins what a program that does not load
// produces: the loader's error on stderr and ExitFailure, byte-identical
// offline and through an engine analyze job, and never a certificate — a
// program without main fails closed rather than certifying vacuously.
func TestLoadFailuresMatchOffline(t *testing.T) {
	e := newTestEngine(t)
	defer e.Drain(time.Minute)
	for _, tc := range []struct{ name, src, stderr string }{
		{"parse-error", "int x\n", "racecheck: parse bad: 2:1: expected ;, found EOF\n"},
		{"type-error", "int main(void) { return y; }\n", "racecheck: check bad: 1:25: undefined: y\n"},
		{"no-main", "int x;\nvoid f(int id) { x = id; }\n", "racecheck: compile bad: 0:0: program has no main function\n"},
	} {
		for _, certify := range []bool{false, true} {
			mut := func(r *Request) { r.Certify = certify }
			var offOut, offErr bytes.Buffer
			offCode := RunRequest(inlineReq("bad.mc", tc.src, mut), nil, &offOut, &offErr)
			v := submitAndAwait(t, e, &JobSpec{Kind: JobAnalyze, Tenant: "acme", Request: inlineReq("bad.mc", tc.src, mut)})
			if v.State != StateDone || v.Result == nil {
				t.Fatalf("%s certify=%v: job state %s, error %q", tc.name, certify, v.State, v.Error)
			}
			r := v.Result
			if r.ExitCode != offCode || r.Stdout != offOut.String() || r.Stderr != offErr.String() {
				t.Errorf("%s certify=%v: job (exit %d, %q, %q) differs from offline (exit %d, %q, %q)",
					tc.name, certify, r.ExitCode, r.Stdout, r.Stderr, offCode, offOut.String(), offErr.String())
			}
			if offCode != ExitFailure {
				t.Errorf("%s certify=%v: exit %d, want %d", tc.name, certify, offCode, ExitFailure)
			}
			if offErr.String() != tc.stderr {
				t.Errorf("%s certify=%v: stderr %q, want %q", tc.name, certify, offErr.String(), tc.stderr)
			}
			if strings.Contains(offOut.String(), "certificate OK") {
				t.Errorf("%s certify=%v: stdout %q certifies a program that does not load", tc.name, certify, offOut.String())
			}
		}
	}
}
