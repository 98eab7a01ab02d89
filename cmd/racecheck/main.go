// racecheck runs the RELAY static data-race detector on a MiniC source
// file and prints the report: race pairs, racy functions, and per-function
// summaries on request. Output is deterministic (pairs are ordered by
// source position), so it can be diffed across runs.
//
// With -certify it also runs the Chimera weak-lock instrumentation and
// the static translation validator (internal/certify) over the result,
// printing the certificate verdict and exiting nonzero unless coverage,
// balance and lock-order checks all pass.
//
// The entire pipeline lives in internal/service; this command parses
// flags into a service.Request and runs it in process — or, with
// -server, ships it to a chimerad instance, whose verdict is
// byte-identical by construction (the server executes the same
// service.RunRequest). Exit codes are the service.Exit* table,
// documented in the README.
//
// Usage:
//
//	racecheck prog.mc
//	racecheck -v prog.mc    # include racy node details
//	racecheck -mhp prog.mc  # apply the static MHP refinement and report
//	                        # kept vs pruned pairs with provenance
//	racecheck -precision prog.mc
//	                        # apply the static precision layer (thread-escape,
//	                        # must-lockset sharpening, read-only sharing);
//	                        # composes with -mhp, which runs first
//	racecheck -pairs prog.mc
//	                        # print the per-pair provenance table under the
//	                        # full refinement chain: every reported pair with
//	                        # its disposition (pruned-by-mhp, pruned-by-escape,
//	                        # pruned-by-mustlock, pruned-by-readonly, or
//	                        # instrumented), sorted by source position
//	racecheck -parallel 4 prog.mc
//	                        # fan the summary computation over 4 workers;
//	                        # output is byte-identical to -parallel 1
//	racecheck -certify prog.mc
//	                        # instrument (default config "all") and certify
//	racecheck -certify -config instr -mhp prog.mc
//	                        # certify a specific config over the refined report
//	racecheck -certify -instrumented inst.mc prog.mc
//	                        # certify a pre-instrumented file against
//	                        # prog.mc's race report (translation validation
//	                        # of external or hand-edited output)
//	racecheck -certify -bench all -certout certs/
//	                        # certify every embedded benchmark (or one, by
//	                        # name) and write the JSON certificates to a dir
//	racecheck -dynamic prog.mc
//	                        # run the program and report dynamic races from
//	                        # the FastTrack-epoch checker attached as a
//	                        # batched event sink
//	racecheck -dynamic -checker both -seed 7 -bench radix
//	                        # run a benchmark under schedule seed 7 with the
//	                        # epoch checker and the full-vector oracle on
//	                        # one event stream; exit nonzero if they diverge
//	racecheck -gen 'counters:7:small'
//	                        # generate the scenario program for a spec and
//	                        # push it through the full soundness pipeline
//	                        # (analyze fresh==incremental, instrument,
//	                        # certify clean, record, replay bit-identical,
//	                        # epoch==vector verdicts); -v prints the source.
//	                        # This is the one-shot repro for a failing
//	                        # generated spec.
//	racecheck -server http://localhost:8377 -tenant alice -mhp prog.mc
//	                        # run the same request on a chimerad server
//	                        # under the "alice" tenant namespace; stdout,
//	                        # stderr and the exit code are byte-identical
//	                        # to the offline invocation
package main

import (
	"flag"
	"io"
	"os"

	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("racecheck", flag.ContinueOnError)
	fs.SetOutput(errOut)
	req := service.NewRequest()
	fs.BoolVar(&req.Verbose, "v", false, "verbose: list racy nodes and locksets")
	fs.BoolVar(&req.ShowCFG, "cfg", false, "print each racy function's control-flow graph")
	fs.BoolVar(&req.MHP, "mhp", false, "apply the static may-happen-in-parallel refinement")
	fs.BoolVar(&req.Precision, "precision", false, "apply the static precision layer (thread-escape, must-lockset sharpening, read-only sharing)")
	fs.BoolVar(&req.Pairs, "pairs", false, "print the per-pair provenance table (reported → pruned-by-* → instrumented) under the full refinement chain")
	fs.IntVar(&req.Parallel, "parallel", 1, "worker count for the summary computation (1 = sequential)")
	fs.BoolVar(&req.Certify, "certify", false, "instrument and run the static DRF/deadlock-freedom certifier")
	fs.StringVar(&req.Config, "config", "all", "instrumentation config for -certify: instr, instr+func, instr+loop, all")
	fs.StringVar(&req.CertOut, "certout", "", "directory to write certificate JSON files to (with -certify)")
	fs.StringVar(&req.Instrumented, "instrumented", "", "pre-instrumented source to certify against the original's report (with -certify)")
	fs.StringVar(&req.Bench, "bench", "", "an embedded benchmark by name, or \"all\" (with -certify or -dynamic)")
	fs.BoolVar(&req.Dynamic, "dynamic", false, "run the program and report dynamic races from the event-sink checker")
	fs.StringVar(&req.Checker, "checker", "epoch", "dynamic race checker for -dynamic: epoch, vector, or both")
	fs.Uint64Var(&req.Seed, "seed", 1, "schedule seed for -dynamic runs")
	fs.StringVar(&req.TracePath, "trace", "", "write a Chrome/Perfetto trace to this file: the observed pipeline with -dynamic, the server-side request span tree with -server")
	fs.StringVar(&req.TraceID, "trace-id", "", "trace ID to stamp on the request with -server (default: server-minted)")
	fs.StringVar(&req.MetricsPath, "metrics", "", "write the observability metrics report (JSON) to this file (with -dynamic)")
	fs.StringVar(&req.Gen, "gen", "", "generate the scenario program for a spec (family:seed:size) and run the full soundness pipeline on it")
	server := fs.String("server", "", "chimerad base URL: execute the request remotely (verdict byte-identical to offline)")
	tenant := fs.String("tenant", "", "tenant namespace for -server submissions (shared caches are per-tenant)")
	if err := fs.Parse(args); err != nil {
		return service.ExitUsage
	}
	req.Args = fs.Args()
	req.Usage = fs.Usage

	if *server != "" {
		return service.RemoteRun(*server, *tenant, req, out, errOut)
	}
	return service.RunRequest(req, nil, out, errOut)
}
