// Command crosscheck soaks the MPFCI stack against its oracles for a wall-
// clock budget: seeded random databases (internal/crosscheck shapes) are
// mined and cross-checked — differentially against exact possible-world
// enumeration when small enough, and against the oracle-free metamorphic
// invariants on larger databases — until the budget expires or a
// counterexample is found. A share of the cases grades the sampled
// ApproxFCP estimates against the oracle; their misses, summed over the
// run, must stay under the binomial quantile the (ε, δ) guarantee allows.
//
// Usage:
//
//	crosscheck [-seconds 60] [-seed 1] [-shape dense|sparse|correlated|degenerate|sparsewide|gaussian]
//
// On failure it prints the (shape, seed) pair, which reproduces the exact
// case via crosscheck.RunDifferential / RunInvariants, and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/probdata/pfcim/internal/crosscheck"
)

func main() {
	var (
		seconds = flag.Int("seconds", 60, "wall-clock soak budget")
		seed    = flag.Int64("seed", 1, "base seed; case i of shape s uses seed base+i")
		shape   = flag.String("shape", "", "restrict to one shape (default: rotate all)")
	)
	flag.Parse()

	shapes := crosscheck.Shapes
	if *shape != "" {
		sh, err := crosscheck.ParseShape(*shape)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		shapes = []crosscheck.Shape{sh}
	}

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var differential, invariants, sharded, streamed, calibrated int
	var calib crosscheck.CalibrationReport
	for i := int64(0); time.Now().Before(deadline); i++ {
		for _, sh := range shapes {
			// The rotation interleaves the five checkers: every eighth case
			// runs the (heavier) metamorphic invariants on a database beyond
			// the oracle's reach, every eighth (offset 3) runs the shard-
			// composability equivalence, every eighth (offset 5) slides the
			// case through a window checking incremental ≡ from-scratch,
			// every eighth (offset 1) grades the sampler, and the rest are
			// differential.
			c := crosscheck.Case{Shape: sh, Seed: *seed + i}
			var err error
			switch {
			case i%8 == 7:
				c.MaxTrans, c.MaxItems = crosscheck.InvariantMaxTrans, crosscheck.InvariantMaxItems
				err = crosscheck.RunInvariants(c)
				invariants++
			case i%8 == 3:
				err = crosscheck.RunShardEquivalence(c)
				sharded++
			case i%8 == 5:
				err = crosscheck.RunStreamEquivalence(c)
				streamed++
			case i%8 == 1:
				var r crosscheck.CalibrationReport
				if r, err = crosscheck.Calibrate(c); err == nil {
					calib.Add(r)
					err = calib.Check()
				}
				calibrated++
			default:
				err = crosscheck.RunDifferential(c)
				differential++
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "FAIL after %d differential + %d invariant + %d shard + %d stream + %d calibration cases:\n%v\n",
					differential, invariants, sharded, streamed, calibrated, err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("crosscheck: OK — %d differential, %d invariant, %d shard, %d stream and %d calibration cases (%v) across %v in %ds\n",
		differential, invariants, sharded, streamed, calibrated, calib, shapes, *seconds)
}
