package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
	"mavfi/internal/qof"
)

// poolWorkers is the campaign worker count every workload uses: the box the
// reference figures come from has two CPUs, and one process drives all load.
const poolWorkers = 2

// paperSpec is the paper-exact grid: worlds {sparse, dense, factory, farm}
// × all five fault families × {low, high} × detectors {none, gad, aad},
// recovery on, exact mode, one mission per cell. Every round repeats the
// same missions, so the warm assets (keyed by matrix seed) stay valid and
// rounds are comparable.
func paperSpec(seed int64, tiny bool) matrix.Spec {
	spec := matrix.Spec{
		Worlds:     []string{"sparse", "dense", "factory", "farm"},
		Families:   faultinject.Families(),
		Severities: matrix.DefaultSeverities(),
		Detectors:  []string{"none", "gad", "aad"},
		Recoveries: []bool{true},
		MapSeed:    "off",
		Runs:       1,
		Seed:       seed,
		TrainEnvs:  12,
		Workers:    poolWorkers,
	}
	if tiny {
		spec.Worlds = []string{"sparse"}
		spec.Families = []faultinject.Family{faultinject.FamilyKernel, faultinject.FamilyWind}
		spec.TrainEnvs = 2
	}
	return spec.Normalized()
}

// warmAssets builds everything matrix runs of specs need before their first
// mission: worlds, kernel calibration counters, trained detectors and (in
// approximate modes) golden maps.
func warmAssets(ctx context.Context, specs ...matrix.Spec) (*matrix.Assets, error) {
	a := matrix.NewAssets()
	runner := campaign.New(campaign.WithWorkers(poolWorkers))
	for _, spec := range specs {
		kernel := false
		for _, t := range spec.Targets {
			kernel = kernel || t.Family == faultinject.FamilyKernel
		}
		for _, w := range spec.Worlds {
			if _, err := a.World(w); err != nil {
				return nil, err
			}
			if kernel {
				if _, err := a.Counter(w, spec.Seed, spec.MaxMissionS); err != nil {
					return nil, err
				}
			}
			if spec.MapSeed != "off" {
				if _, err := a.MapSeed(w); err != nil {
					return nil, err
				}
			}
		}
		for _, d := range spec.Detectors {
			if _, err := a.Detector(ctx, runner, d, spec.Seed, spec.TrainEnvs); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// matrixCSVs renders every cell's CSV keyed by cell index, plus the summary.
func matrixCSVs(res *matrix.Result) (map[int]string, string) {
	cells := make(map[int]string, len(res.Cells))
	for i := range res.Cells {
		cells[res.Cells[i].Cell.Index] = res.Cells[i].CSV()
	}
	return cells, res.SummaryCSV()
}

// joinCSVs concatenates a result's CSVs in cell order, the unit the
// determinism check compares across rounds.
func joinCSVs(res *matrix.Result) string {
	var sb strings.Builder
	for i := range res.Cells {
		sb.WriteString(res.Cells[i].CSV())
	}
	sb.WriteString(res.SummaryCSV())
	return sb.String()
}

// countMissions tallies a matrix result's missions, their summed flight
// time, and the ones that failed as operations (panic or deadline).
func countMissions(res *matrix.Result) (missions int, flightS float64, failed int) {
	for _, cr := range res.Cells {
		for _, m := range cr.Campaign.Results {
			missions++
			flightS += m.FlightTimeS
			if m.Outcome == qof.Panicked || m.Outcome == qof.DeadlineExceeded {
				failed++
			}
		}
	}
	return missions, flightS, failed
}

// checkMatrix runs checks (a) and (b) over a matrix result.
func checkMatrix(b *bench, name string, res *matrix.Result) {
	cells, summary := matrixCSVs(res)
	b.check(name+" (a) summary recomputation", checkSummary(cells, summary))
	var err error
	for _, cr := range res.Cells {
		c := cr.Cell
		if e := checkMissionProps(cells[c.Index], propsSpec{c.Detector, c.Severity.Scale, res.Spec.MaxMissionS}); e != nil {
			err = fmt.Errorf("cell %s: %w", c.Name(), e)
			break
		}
	}
	b.check(name+" (b) per-mission properties", err)
}

// paperSeeds is how many matrix seeds a paper-exact run uses; every round
// runs the grid once under each. The detectors are trained per matrix seed
// and a model's alarm pattern sets the length of every mission that carries
// it, so one seed's grid flies noticeably longer or shorter missions than
// another's. Using several keeps the run's figures from hinging on one
// model, and putting all of them in every round keeps the input mix of
// each round, and so of the median over rounds, the same however many
// rounds fit in the run.
const paperSeeds = 4

// matrixSeeds derives n hazard-free matrix seeds from the run's seed, each
// screened with spec.
func matrixSeeds(seed int64, n int, spec func(int64) matrix.Spec) ([]int64, error) {
	var out []int64
	for k := 0; k < n; k++ {
		base := seed
		if k > 0 {
			base = campaign.MissionSeed(seed, 1000+k)
		}
		s, err := pickSeed(base, func(s int64) []matrix.Spec { return []matrix.Spec{spec(s)} })
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// runPaperExact is the paper-exact workload: in-process matrix.RunOn on
// warm assets in exact mode, no HTTP and no recording. Each round runs the
// grid under every one of the run's matrix seeds in turn.
func runPaperExact(ctx context.Context, b *bench) error {
	n := paperSeeds
	if b.opt.tiny {
		n = 1
	}
	seeds, err := matrixSeeds(b.opt.seed, n, func(s int64) matrix.Spec { return paperSpec(s, b.opt.tiny) })
	if err != nil {
		return err
	}
	var specs []matrix.Spec
	for _, s := range seeds {
		specs = append(specs, paperSpec(s, b.opt.tiny))
	}
	var assets *matrix.Assets
	release, err := b.setup(func() (func(), error) {
		a, err := warmAssets(ctx, specs...)
		assets = a
		return func() { assets = nil }, err
	})
	if err != nil {
		return err
	}
	defer release()

	first := make([]*matrix.Result, n) // each seed's first result
	firstCSV := make([]string, n)
	var repeatErr error
	b.timed(func(i int) round {
		var r round
		for k, spec := range specs {
			total := len(matrix.Cells(spec)) * spec.Runs
			start := time.Now()
			res, err := matrix.RunOn(ctx, spec, assets)
			r.wall += time.Since(start)
			if err != nil {
				logf("round %d, matrix seed %d: %v", i+1, spec.Seed, err)
				b.ops(total, total)
				continue
			}
			missions, flight, failed := countMissions(res)
			b.ops(total, failed)
			r.missions += missions
			r.flightS += flight
			switch {
			case first[k] == nil:
				first[k], firstCSV[k] = res, joinCSVs(res)
			case repeatErr == nil:
				repeatErr = checkBytesEqual(fmt.Sprintf("round %d, matrix seed %d CSVs", i+1, spec.Seed), joinCSVs(res), firstCSV[k])
			}
		}
		return r
	})
	b.check("rounds repeat byte-identically", repeatErr)
	var results []*matrix.Result
	for _, res := range first {
		if res != nil {
			checkMatrix(b, "paper-exact", res)
			results = append(results, res)
		}
	}

	if !b.opt.trace {
		return nil
	}
	if err := shadowAssets(b, specs[0].Worlds, specs[0].Seed, nil); err != nil {
		return err
	}
	gad, aad, err := shadowTraining(ctx, b, specs[0].Seed, specs[0].TrainEnvs, true)
	if err != nil {
		return err
	}
	// One mission in n, spread over every seed's grid, stands for them all.
	var sample []shadowMission
	for _, res := range results {
		ms, err := cellMissions(ctx, res, assets)
		if err != nil {
			return err
		}
		sample = append(sample, ms...)
	}
	sr, err := shadowMissions(every(sample, len(results)), gad, aad)
	b.check("shadow replay reproduces the published missions", err)
	if err == nil {
		sr.report(b, poolWorkers)
	}
	return nil
}

// every keeps one element in n, starting with the first.
func every[T any](xs []T, n int) []T {
	var out []T
	for i := 0; i < len(xs); i += n {
		out = append(out, xs[i])
	}
	return out
}
