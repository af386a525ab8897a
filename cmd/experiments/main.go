// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section V) at a configurable scale.
//
// Usage:
//
//	experiments [-exp all|example1|table7|table8|fig5..fig12|extra|profile]
//	            [-mushroom-scale 0.1] [-quest-scale 0.02]
//	            [-pfct 0.8] [-eps 0.1] [-delta 0.1]
//	            [-seed 42] [-budget 60s] [-cpuprofile cpu.prof]
//
// Each experiment prints the same rows/series the paper's figure plots;
// EXPERIMENTS.md records a reference run and the paper-vs-measured
// comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"github.com/probdata/pfcim/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run parses the flags and runs the requested experiment, returning the
// process exit code. Returning instead of calling os.Exit lets the deferred
// profile stop and file close run on the failure path too.
func run() (code int) {
	var (
		exp        = flag.String("exp", "all", "experiment to run: all, example1, table7, table8, fig5..fig12, extra, profile")
		mushScale  = flag.Float64("mushroom-scale", 0.1, "Mushroom-like dataset scale (1 = 8124 transactions)")
		questScale = flag.Float64("quest-scale", 0.02, "T20I10D30KP40 scale (1 = 30000 transactions)")
		pfct       = flag.Float64("pfct", 0.8, "probabilistic frequent closed threshold")
		eps        = flag.Float64("eps", 0.1, "ApproxFCP relative tolerance error")
		delta      = flag.Float64("delta", 0.1, "ApproxFCP confidence parameter")
		seed       = flag.Int64("seed", 42, "generator and sampler seed")
		budget     = flag.Duration("budget", 60*time.Second, "per-point time budget; a series exceeding it skips its remaining points")
		quick      = flag.Bool("quick", false, "trim every sweep to a few representative points")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				code = 1
			}
		}()
	}

	suite := experiments.NewSuite(experiments.Config{
		MushroomScale: *mushScale,
		QuestScale:    *questScale,
		PFCT:          *pfct,
		Epsilon:       *eps,
		Delta:         *delta,
		Seed:          *seed,
		Budget:        *budget,
		Quick:         *quick,
		Out:           os.Stdout,
	})
	if err := suite.Run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	return 0
}
