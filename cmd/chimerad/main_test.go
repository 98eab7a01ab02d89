package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// syncBuf is a bytes.Buffer safe for the concurrent writes run's server
// goroutines produce while the test reads it.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`chimerad: listening on http://(\S+) `)

// TestRunDrainExitAndFinalMetrics boots run() on an ephemeral port, does
// one job's worth of real traffic, then delivers a synthetic SIGTERM and
// pins the drain contract: exit code 0, a "drained cleanly" stderr line,
// and a final_metrics structured log line that parses as JSON and carries
// the engine's metrics snapshot.
func TestRunDrainExitAndFinalMetrics(t *testing.T) {
	var stdout, stderr syncBuf
	sig := make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-shards", "2",
			"-depth", "16",
			"-spool", t.TempDir(),
			"-drain-timeout", "30s",
		}, &stdout, &stderr, sig)
	}()

	// Wait for the readiness line and pull the bound address out of it.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no readiness line; stdout=%q stderr=%q", stdout.String(), stderr.String())
		}
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			base = "http://" + m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	c := service.NewClient(base)
	src := `int x;
void bump(int id) { x = x + id; }
int main(void) {
    int t = spawn(bump, 1);
    join(t);
    return x;
}
`
	accepted, err := c.Submit(&service.JobSpec{Kind: service.JobRecord, Tenant: "acme", Name: "drain", Source: src, Seed: 7})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v, err := c.Wait(accepted.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if v.State != service.StateDone {
		t.Fatalf("job state = %s (error %q), want done", v.State, v.Error)
	}

	sig <- syscall.SIGTERM
	select {
	case code := <-done:
		if code != service.ExitOK {
			t.Fatalf("run exit = %d, want %d; stderr=%q", code, service.ExitOK, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not exit after SIGTERM; stderr=%q", stderr.String())
	}

	errText := stderr.String()
	if !strings.Contains(errText, "chimerad: drained cleanly") {
		t.Fatalf("stderr missing clean-drain line:\n%s", errText)
	}

	// The final snapshot must be one valid JSON log line whose metrics
	// payload is a real ServiceMetrics document with traffic in it.
	var finalLine string
	for _, line := range strings.Split(errText, "\n") {
		if strings.Contains(line, `"event":"final_metrics"`) {
			finalLine = line
		}
	}
	if finalLine == "" {
		t.Fatalf("stderr missing final_metrics log line:\n%s", errText)
	}
	var rec struct {
		TS      string          `json:"ts"`
		Level   string          `json:"level"`
		Event   string          `json:"event"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(finalLine), &rec); err != nil {
		t.Fatalf("final_metrics line is not valid JSON: %v\nline: %s", err, finalLine)
	}
	if rec.Event != "final_metrics" || rec.Level != "info" {
		t.Fatalf("final_metrics line fields = (%q, %q), want (final_metrics, info)", rec.Event, rec.Level)
	}
	var m struct {
		Schema int `json:"schema"`
		Jobs   struct {
			Done int `json:"done"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Metrics, &m); err != nil {
		t.Fatalf("final_metrics metrics payload is not valid JSON: %v", err)
	}
	if m.Schema != 3 || m.Jobs.Done < 1 {
		t.Fatalf("final_metrics snapshot = schema %d, done %d; want schema 3 with >=1 done job", m.Schema, m.Jobs.Done)
	}
}

// TestRunBadFlags pins the usage exit code for malformed invocations.
func TestRunBadFlags(t *testing.T) {
	var stdout, stderr syncBuf
	if code := run([]string{"-log-level", "loud"}, &stdout, &stderr, nil); code != service.ExitUsage {
		t.Fatalf("bad -log-level exit = %d, want %d", code, service.ExitUsage)
	}
	if code := run([]string{"stray-arg"}, &stdout, &stderr, nil); code != service.ExitUsage {
		t.Fatalf("stray arg exit = %d, want %d", code, service.ExitUsage)
	}
}
