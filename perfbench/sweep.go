package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"kset/internal/checker"
	"kset/internal/grid"
	"kset/internal/harness"
	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/sweep"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

// The sweep workload: a fixed grid over all four models, one spec per
// model, run cell by cell through a 2-worker sweep.Pool. A Byzantine
// message-passing cell costs several times a crash one at the same n, so
// each model gets the n that gives it a similar share of the run, and no
// one model's cost hides the others'. The seed picks the order cells are
// executed in; each record is a pure function of its cell, so the JSONL
// is the same for every seed and is checked against a recorded digest.
const (
	sweepWorkers = 2
	sweepRuns    = 8
	sweepSeed    = 1999
)

// sweepModels gives each model's spec its n; k and t range over
// 1..n-1 and 0..n-2 under every validity condition.
var sweepModels = []struct {
	model  types.Model
	n      int
	digest string // sha256 of the spec's JSONL
}{
	{types.MPCR, 10, "c4e0e2b54cccc2aa872956250676e5259ff8f34fb98303f609961b2ff0c3bce5"},
	{types.MPByz, 8, "9b9ed6ed155c3e6f110fcce748dc9418494079ffdae09d81047ecb910f56fc9c"},
	{types.SMCR, 8, "86d013d4612ad5647df24f1e065cef0e62630f1a9f1f9baf77babf09ce3e88d0"},
	{types.SMByz, 8, "0a121545dcad6533c0ccee88da26efbfdef578adbb357d1c328bd63b69069ef6"},
}

func sweepSpecs() []*grid.Spec {
	specs := make([]*grid.Spec, len(sweepModels))
	for i, m := range sweepModels {
		s := &grid.Spec{
			Models:     []types.Model{m.model},
			Validities: types.AllValidities(),
			Ns:         []int{m.n},
			Plans:      []grid.FaultPlan{grid.FaultFull},
			Trials:     1,
			Runs:       sweepRuns,
			Seed:       sweepSeed,
		}
		for k := 1; k < m.n; k++ {
			s.Ks = append(s.Ks, k)
			s.Ts = append(s.Ts, k-1)
		}
		specs[i] = s
	}
	return specs
}

// cellRef names one cell of one spec.
type cellRef struct {
	spec int
	idx  uint64
}

// modelTag is a model's name as it appears in metric names: "mp-cr".
func modelTag(m types.Model) string {
	return strings.ToLower(strings.ReplaceAll(m.String(), "/", "-"))
}

func runSweep(c *repCtx) rep {
	r := rep{layer: map[string]float64{}, notes: map[string]any{}}
	t0 := time.Now()
	specs := sweepSpecs()
	var cells []cellRef
	recs := make([][]grid.Record, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			r.gate.check(err)
			return r
		}
		recs[i] = make([]grid.Record, s.NumCells())
		for idx := uint64(0); idx < s.NumCells(); idx++ {
			cells = append(cells, cellRef{i, idx})
		}
	}
	rng := prng.New(c.seed)
	order := rng.Perm(len(cells))
	pool := sweep.NewPool(sweepWorkers)
	// Probe: the first solvable cell of every spec, so each model's code
	// paths are warm before timing starts.
	for _, s := range specs {
		if idx, ok := firstSolvable(s); ok {
			s.RunCell(idx)
		}
	}
	r.setup = time.Since(t0)

	// lat[j] is the time to produce the record of cells[order[j]].
	lat := make(samples, len(cells))
	c.beginPhase()
	start := time.Now()
	pool.Map(len(cells), func(j int) {
		ref := cells[order[j]]
		st := time.Now()
		rec := specs[ref.spec].RunCell(ref.idx)
		lat[j] = time.Since(st)
		recs[ref.spec][ref.idx] = rec
	})
	r.elapsed = time.Since(start)
	r.ops = len(cells)
	r.allocs, r.cpu = c.endPhase()

	// Gate: every spec's JSONL matches its recorded digest, and no cell
	// reports a violation or a run error.
	var events int64
	for i, s := range specs {
		var buf bytes.Buffer
		digestErr := grid.WriteJSONL(&buf, recs[i])
		if digestErr == nil {
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != sweepModels[i].digest {
				digestErr = fmt.Errorf("%v JSONL digest %s, recorded %s", s.Models[0], got, sweepModels[i].digest)
			}
		}
		for _, rec := range recs[i] {
			events += rec.Events
			err := digestErr
			if err == nil && (rec.Violations > 0 || rec.RunErrors > 0) {
				err = fmt.Errorf("cell %d (%s %s n=%d k=%d t=%d): %d violations, %d run errors: %s",
					rec.Cell, rec.Model, rec.Validity, rec.N, rec.K, rec.T, rec.Violations, rec.RunErrors, rec.FirstViolation)
			}
			r.gate.check(err)
		}
	}
	// The latency figures cover the cells that execute runs. The others
	// (impossible or open cells) only classify, in microseconds; with about
	// half the grid on each side, a median over all cells would flip
	// between the two from run to run.
	perModel := make([]samples, len(specs))
	for j, ref := range order {
		cell := cells[ref]
		if recs[cell.spec][cell.idx].Runs > 0 {
			r.lat = append(r.lat, lat[j])
			perModel[cell.spec] = append(perModel[cell.spec], lat[j])
		}
	}
	r.notes["cells_per_rep"] = len(cells)
	r.notes["executed_cells_per_rep"] = len(r.lat)

	if c.tr != nil {
		var busy time.Duration
		for _, d := range lat {
			busy += d
		}
		r.layer["sim.events_per_s"] = float64(events) / r.elapsed.Seconds()
		r.layer["sweep.worker_busy_ratio"] = busy.Seconds() / (r.elapsed.Seconds() * sweepWorkers)
		for i, m := range sweepModels {
			r.layer["grid.cell_ms_p50."+modelTag(m.model)] = ms(perModel[i].percentile(5000))
		}
		decomposeCells(c, specs, recs, rng, &r)
	}
	return r
}

func firstSolvable(s *grid.Spec) (uint64, bool) {
	for idx := uint64(0); idx < s.NumCells(); idx++ {
		cell := s.CellAt(idx)
		if theory.Classify(cell.Model, cell.Validity, cell.N, cell.K, cell.T).Status == theory.Solvable {
			return idx, true
		}
	}
	return 0, false
}

// decomposedPerModel is how many solvable cells per model a traced
// repetition re-executes layer by layer.
const decomposedPerModel = 2

// decomposeCells re-executes a few seed-chosen solvable cells step by step
// through public calls, each in its own span, so the tracer can attribute
// self time per layer: theory.Classify, then per run the capture
// (harness.CaptureCellRun, which plans the run and executes it once with
// recording on — RunCell's own run, plus the recording), the replay config
// (trace.Build*Config), a second execution of the run under the replay
// scheduler (mpnet.Run or smmem.Run), the checker (checker.CheckAll), and
// finally the record encoding (grid.WriteJSONL). The mpnet.run and
// smmem.run spans therefore time the replay path, not RunCell's own run,
// which sits inside harness.capture together with the planning. The
// replayed events must still match the record exactly, which the note
// decomposition_events_match states.
func decomposeCells(c *repCtx, specs []*grid.Spec, recs [][]grid.Record, rng *prng.Source, r *rep) {
	match := true
	for i, s := range specs {
		var solvable []uint64
		for idx, rec := range recs[i] {
			if rec.Runs > 0 {
				solvable = append(solvable, uint64(idx))
			}
		}
		for n := 0; n < decomposedPerModel && len(solvable) > 0; n++ {
			idx := solvable[rng.Intn(len(solvable))]
			events, err := decomposeCell(c.tr, s, recs[i][idx])
			if err != nil || events != recs[i][idx].Events {
				match = false
			}
		}
	}
	r.notes["decomposition_events_match"] = match
}

func decomposeCell(tr *tracer, s *grid.Spec, rec grid.Record) (int64, error) {
	cell := s.CellAt(rec.Cell)
	root := tr.begin("grid.cell_decomposed", 0)
	defer tr.end(root)
	sp := tr.begin("theory.classify", root)
	theory.Classify(cell.Model, cell.Validity, cell.N, cell.K, cell.T)
	tr.end(sp)
	var events int64
	master := prng.New(rec.Seed)
	for i := 0; i < s.Runs; i++ {
		runSeed := master.Uint64()
		sp = tr.begin("harness.capture", root)
		art, _, err := harness.CaptureCellRun(cell.Model, cell.Validity, cell.N, cell.K, cell.T, runSeed)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		var run *types.RunRecord
		if cell.Model.Comm == types.MessagePassing {
			cfg, err := trace.BuildMPConfig(art)
			if err != nil {
				return 0, err
			}
			sp = tr.begin("mpnet.run", root)
			run, err = mpnet.Run(cfg)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
		} else {
			cfg, err := trace.BuildSMConfig(art)
			if err != nil {
				return 0, err
			}
			sp = tr.begin("smmem.run", root)
			run, err = smmem.Run(cfg)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
		}
		sp = tr.begin("checker.check", root)
		_ = checker.CheckAll(run, cell.Validity) // the record already carries the verdict
		tr.end(sp)
		events += int64(run.Events)
	}
	sp = tr.begin("grid.encode", root)
	err := grid.WriteJSONL(io.Discard, []grid.Record{rec})
	tr.end(sp)
	return events, err
}

// sweepLayers adds the span-derived metrics: the self time of each
// simulator-path layer in the decomposed cells (see decomposeCells for
// which run each span times).
func sweepLayers(tr *tracer, out map[string]float64) {
	self := tr.selfTimes()
	for _, layer := range []string{"theory.classify", "harness.capture", "mpnet.run", "smmem.run", "checker.check", "grid.encode"} {
		if lt := self[layer]; lt.calls > 0 {
			out[layer+".self_us_per_call"] = us(lt.self) / float64(lt.calls)
		}
	}
}
