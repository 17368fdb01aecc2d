// Command benchreport regenerates the paper's evaluation: every
// quantitative claim in §7 (throughput, CPU shares, code sizes, process
// counts) plus the measurable claims of §3.1, §5.4 and §5.9, printed as
// the tables EXPERIMENTS.md records.
//
//	benchreport                 run everything
//	benchreport -exp e5         run one experiment
//	benchreport -exp e15,e16    run a comma-separated subset
//	benchreport -root DIR       repository root: code size, expectd builds,
//	                            and the committed BENCH files guards read
//	benchreport -json FILE      also write the results as JSON
//	benchreport -cpuprofile F   write a CPU profile of the run to F
//	benchreport -memprofile F   write an allocation profile of the run to F
//
// Guards always run: after the report (and -json) is written, every row
// of the table in guards.go whose experiment ran is checked — a BENCH
// metric against an absolute bound or a percent budget over a committed
// BENCH file — and any failed row exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "run only these experiment ids (comma-separated, e.g. e5 or e15,e16)")
		root       = flag.String("root", ".", "repository root (code size, expectd builds, and the committed BENCH files guards read)")
		jsonPath   = flag.String("json", "", "write the results to this file as JSON")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: memprofile: %v\n", err)
			}
		}()
	}

	wanted := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[strings.ToLower(id)] = true
		}
	}

	specs := experiments.All(*root)
	var results []experiments.Result
	for _, spec := range specs {
		if len(wanted) > 0 && !wanted[strings.ToLower(spec.ID)] {
			continue
		}
		r, err := spec.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n", spec.ID, err)
			os.Exit(1)
		}
		results = append(results, r)
		fmt.Println(r.Format())
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "benchreport: no experiment %q; available:", *exp)
		for _, spec := range specs {
			fmt.Fprintf(os.Stderr, " %s", spec.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	ok, err := writeAndGuard(os.Stderr, guards, results, *root, *jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}
