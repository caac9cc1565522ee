package main

import (
	"fmt"
	"time"

	"kset/internal/exhaustive"
	"kset/internal/prng"
	"kset/internal/theory"
	"kset/internal/types"
)

// The exhaustive workload: exhaustive.Verify re-derives the solvability
// boundaries of FloodMin/RV1 (Lemmas 3.1/3.2), Protocol A/RV2 (Lemma 3.7)
// and Protocol B/SV2 (Lemma 3.8) over every 2 <= k < n and 1 <= t < n at
// n = exhN, one verdict per (rule, k, t). It runs on the calling goroutine
// alone, like the tests that re-derive the boundaries. The seed picks the
// order of the verdicts; the set is the same for every seed.
const exhN = 5

type verdictJob struct {
	rule     exhaustive.Rule
	validity types.Validity
	k, t     int
	want     bool // the theory region predicate
}

func verdictJobs(n int) []verdictJob {
	var jobs []verdictJob
	for k := 2; k < n; k++ {
		for t := 1; t < n; t++ {
			jobs = append(jobs,
				verdictJob{exhaustive.FloodMinRule{}, types.RV1, k, t, theory.FloodMinRegion(k, t)},
				verdictJob{exhaustive.ProtocolARule{}, types.RV2, k, t, theory.ProtocolARegion(n, k, t)},
				verdictJob{exhaustive.ProtocolBRule{}, types.SV2, k, t, theory.ProtocolBRegion(n, k, t)},
			)
		}
	}
	return jobs
}

func runExhaustive(c *repCtx) rep {
	r := rep{layer: map[string]float64{}, notes: map[string]any{}}
	t0 := time.Now()
	jobs := verdictJobs(exhN)
	order := prng.New(c.seed).Perm(len(jobs))
	// Probe: one verdict per rule at n-1, so each rule's code is warm
	// before timing starts.
	for _, j := range verdictJobs(exhN - 1)[:3] {
		exhaustive.Verify(j.rule, j.validity, exhN-1, j.k, j.t, 0)
	}
	r.setup = time.Since(t0)

	var configs int
	c.beginPhase()
	start := time.Now()
	// A verdict runs on this goroutine alone, so the process CPU time
	// across it is its cost; wall time would add whatever the host gave
	// other guests meanwhile.
	for _, i := range order {
		j := jobs[i]
		st := processCPU()
		v := exhaustive.Verify(j.rule, j.validity, exhN, j.k, j.t, 0)
		r.lat = append(r.lat, processCPU()-st)
		configs += v.Configurations
		var err error
		if v.Holds != j.want {
			err = fmt.Errorf("%s %v n=%d k=%d t=%d: verifier says holds=%v, theory says %v",
				j.rule.Name(), j.validity, exhN, j.k, j.t, v.Holds, j.want)
		}
		r.gate.check(err)
	}
	r.elapsed = time.Since(start)
	r.ops = len(jobs)
	r.allocs, r.cpu = c.endPhase()
	r.notes["verdicts_per_rep"] = len(jobs)
	r.notes["configurations_per_rep"] = configs
	r.layer["exhaustive.configurations"] = float64(configs)
	r.layer["exhaustive.configs_per_s"] = float64(configs) / r.elapsed.Seconds()
	return r
}
