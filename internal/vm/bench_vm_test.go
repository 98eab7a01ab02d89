package vm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oskit"
	"repro/internal/scenario"
	"repro/internal/vm"
)

// BenchmarkVMNative runs a generated scenario natively at the service's
// default footprint (default heap, stacks and thread limit), the
// baseline the record and replay benchmarks in internal/core compare to.
func BenchmarkVMNative(b *testing.B) {
	spec, err := scenario.Parse("workpool:1:medium")
	if err != nil {
		b.Fatal(err)
	}
	src, err := scenario.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := core.Load(spec.Name(), src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := vm.Run(prog.Code, vm.Config{Inputs: vm.LiveInputs{OS: oskit.NewWorld(1)}, Seed: 1})
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}
