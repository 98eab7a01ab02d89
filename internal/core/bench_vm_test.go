package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/oskit"
	"repro/internal/scenario"
)

// benchInstrumented instruments the generated scenario BenchmarkVMNative
// (internal/vm) runs, with the service's default "all" configuration.
func benchInstrumented(b *testing.B) *core.Instrumented {
	b.Helper()
	spec, err := scenario.Parse("workpool:1:medium")
	if err != nil {
		b.Fatal(err)
	}
	src, err := scenario.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	run, err := core.Pipeline{Name: spec.Name(), Source: src, Config: "all"}.Run()
	if err != nil {
		b.Fatal(err)
	}
	return run.Inst
}

// BenchmarkVMRecord records the instrumented scenario at the service's
// default footprint, streaming the CHIMLOG2 log to memory as a record
// job streams it to its spool.
func BenchmarkVMRecord(b *testing.B) {
	ip := benchInstrumented(b)
	var log bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Reset()
		if r, _, _ := ip.RecordTo(core.RunConfig{World: oskit.NewWorld(1), Seed: 1}, &log); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// BenchmarkVMReplayStream replays that recording from its CHIMLOG2 bytes
// through the streaming replayer, as a replay-verify job does.
func BenchmarkVMReplayStream(b *testing.B) {
	ip := benchInstrumented(b)
	var log bytes.Buffer
	if r, _, _ := ip.RecordTo(core.RunConfig{World: oskit.NewWorld(1), Seed: 1}, &log); r.Err != nil {
		b.Fatal(r.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReplayProgramStream(ip.Prog, ip.Table, bytes.NewReader(log.Bytes()), core.RunConfig{World: oskit.NewWorld(977), Seed: 977}); err != nil {
			b.Fatal(err)
		}
	}
}
