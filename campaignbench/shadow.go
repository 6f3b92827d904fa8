package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/detect"
	"mavfi/internal/geom"
	"mavfi/internal/octomap"
	"mavfi/internal/perception"
	"mavfi/internal/pipeline"
	"mavfi/internal/planning"
	"mavfi/internal/platform"
	"mavfi/internal/pointcloud"
	"mavfi/internal/qof"
	"mavfi/internal/sim"
)

// The traced run's per-layer split comes from shadow replay, run after the
// timed phase: each traced mission is flown again on its own (timing
// RunMission), flown once more with Config.Record and RecordStates on, and
// its recorded poses, replan events and state deltas are re-driven through
// each layer's public call at the mission's map and tick cadence. Nothing
// is instrumented inside the program.

// layerDecl declares one per-layer metric: its unit and the workloads whose
// path crosses its layer, by initial (P paper-exact, S served-replay,
// D dispatch-memo). A traced run prints every metric; one whose layer the
// workload's path does not cross reads 0.
type layerDecl struct {
	unit string
	path string
}

// layers declares every per-layer metric.
var layers = map[string]layerDecl{
	"matrix.world_build_s":          {"s", "PSD"},
	"matrix.calibrate_s":            {"s", "PSD"},
	"matrix.mapseed_build_s":        {"s", "SD"},
	"pipeline.collect_training_s":   {"s", "PS"},
	"pipeline.train_gad_s":          {"s", "PS"},
	"pipeline.train_aad_s":          {"s", "P"},
	"pipeline.mission_ms_p50":       {"ms", "PSD"},
	"pipeline.mission_ms_p90":       {"ms", "PSD"},
	"pipeline.alloc_kb_per_mission": {"KiB", "PSD"},
	"campaign.pool_busy_frac":       {"fraction", "PSD"},
	"sim.capture_us":                {"us", "PSD"},
	"pointcloud.generate_us":        {"us", "PSD"},
	"octomap.insert_us":             {"us", "PSD"},
	"octomap.leaf_updates_per_scan": {"count", "PSD"},
	"octomap.fork_us":               {"us", "SD"},
	"octomap.insert_share":          {"fraction", "PSD"},
	"perception.check_us":           {"us", "PSD"},
	"planning.plan_ms":              {"ms", "PSD"},
	"planning.plans_per_mission":    {"count", "PSD"},
	"detect.gad_observe_us":         {"us", "PS"},
	"detect.aad_observe_us":         {"us", "P"},
	"record.write_ms_per_mission":   {"ms", "S"},
	"record.bytes_per_mission":      {"bytes", "S"},
	"record.verify_ms":              {"ms", "S"},
	"record.verify_failed":          {"count", "S"},
	"server.job_p50_s":              {"s", "S"},
	"server.job_p90_s":              {"s", "S"},
	"server.first_event_s":          {"s", "S"},
	"server.csv_fetch_ms":           {"ms", "S"},
	"dispatch.exec_rtt_ms_p50":      {"ms", "D"},
	"dispatch.worker_exec_ms_p50":   {"ms", "D"},
	"dispatch.tax_ms_per_cell":      {"ms", "D"},
	"dispatch.seed_fetch_ms":        {"ms", "D"},
	"dispatch.shard_idle_frac":      {"fraction", "D"},
	"dispatch.retries":              {"count", "D"},
	"dispatch.expired_leases":       {"count", "D"},
	"dispatch.stale_drops":          {"count", "D"},
	"dispatch.local_runs":           {"count", "D"},
}

// shadowMission is one mission to replay. cfg must return a fresh config
// on every call: detectors are stateful, so two flights may not share one.
type shadowMission struct {
	cfg func() pipeline.Config
	// want, when non-nil, is the mission's published result; the shadow
	// flight must reproduce it, or the split would describe other missions.
	want *qof.Metrics
}

// timing accumulates the duration and count of one layer's calls.
type timing struct {
	total time.Duration
	n     int
}

func (t *timing) add(d time.Duration) { t.total += d; t.n++ }

// perCall returns the mean call time in unit (0 when never called).
func (t timing) perCall(unit time.Duration) float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total) / float64(t.n) / float64(unit)
}

// shadowResult is the aggregated mission-internal split.
type shadowResult struct {
	missionMS                                              []float64
	allocBytes                                             []float64
	capture, generate, insert, fork, check, plan, gad, aad timing
	leafUpdates                                            int
	plans                                                  int
}

// shadowMissions replays missions through every mission layer. gad and aad may
// be nil when the workload runs without that detector.
func shadowMissions(missions []shadowMission, gad *detect.GAD, aad *detect.AAD) (*shadowResult, error) {
	sr := &shadowResult{}
	var before, after runtime.MemStats
	for i, m := range missions {
		cfg := m.cfg()
		runtime.ReadMemStats(&before)
		start := time.Now()
		res := pipeline.RunMission(cfg)
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		sr.missionMS = append(sr.missionMS, ms(d))
		sr.allocBytes = append(sr.allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
		sr.plans += res.Plans
		if m.want != nil && res.Metrics != *m.want {
			return nil, fmt.Errorf("shadow mission %d: re-flight gives %+v, published result is %+v", i, res.Metrics, *m.want)
		}

		rcfg := m.cfg()
		rcfg.Record, rcfg.RecordStates = true, true
		rec := pipeline.RunMission(rcfg)
		if rec.Metrics != res.Metrics {
			return nil, fmt.Errorf("shadow mission %d: recorded re-flight diverged from the plain one", i)
		}
		sr.replay(rcfg, rec)
		if gad != nil {
			sr.gad.observe(gad.Clone(), rec.StateDeltas, rcfg.Normalized().TickS)
		}
		if aad != nil {
			sr.aad.observe(aad.Clone(), rec.StateDeltas, rcfg.Normalized().TickS)
		}
	}
	return sr, nil
}

// observe feeds the recorded per-tick deltas to det, timing each call.
func (t *timing) observe(det detect.Detector, deltas [][detect.NumStates]float64, tick float64) {
	for i, d := range deltas {
		start := time.Now()
		det.Observe(float64(i+1)*tick, d)
		t.add(time.Since(start))
	}
}

// replay re-drives one recorded mission through the perception, mapping,
// collision-check and planning layers. The loop follows the mission's own
// cadence: a tick per recorded sample, a depth capture whenever the map
// period has elapsed, a collision check every airborne tick and a plan at
// every tick the recording tags "replan". Tick k acts on the state the
// vehicle held before it moved, i.e. sample k-1 (the start pose for k = 0).
func (sr *shadowResult) replay(cfg pipeline.Config, rec pipeline.Result) {
	cfg = cfg.Normalized()
	w := cfg.World
	vp := sim.DefaultParams()
	var tree *octomap.Tree
	if cfg.MapSeed != nil {
		start := time.Now()
		tree = cfg.MapSeed.Snapshot().Fork()
		sr.fork.add(time.Since(start))
	} else {
		tree = pipeline.EmptyMapSeed(w).Snapshot().Fork()
	}
	cam := sim.DefaultDepthCamera()
	gen := pointcloud.NewGenerator()
	frame, cloud := &sim.DepthImage{}, &pointcloud.Cloud{}
	var scan []octomap.RayPoint
	checker := perception.NewChecker(vp.Radius)
	planner := planning.NewRRTStar(planning.DefaultConfig(w.Bounds))
	mission := planning.NewMission(w.Goal, cfg.CruiseAlt, w.GoalTolerance)
	cc := &mapChecker{
		tree:   tree,
		policy: octomap.QueryPolicy{UnknownIsFree: true, Radius: vp.Radius + 0.2},
		zMin:   1.2,
		zMax:   math.Min(w.Bounds.Max.Z-1, cfg.CruiseAlt+2.5),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	period := pipeline.MapPeriod(cfg.Platform)

	samples := rec.Trace.Samples
	pos, vel, yaw := w.Start, geom.Vec3{}, w.Goal.Sub(w.Start).Yaw()
	var remaining []geom.Vec3
	nextMap := 0.0
	for k := range samples {
		t := float64(k+1) * cfg.TickS
		if t >= nextMap {
			nextMap = t + period
			start := time.Now()
			cam.CaptureInto(frame, w, pos, yaw, rng)
			sr.capture.add(time.Since(start))
			start = time.Now()
			gen.GenerateInto(cloud, frame, nil)
			sr.generate.add(time.Since(start))
			scan = scan[:0]
			for _, p := range cloud.Points {
				scan = append(scan, octomap.RayPoint{End: p.P, Hit: p.Hit})
			}
			leaves := tree.LeafUpdates()
			start = time.Now()
			if cfg.MapSeed != nil {
				tree.InsertCloudApprox(cloud.Origin, scan, 0, 0, cfg.MemoSkip)
			} else {
				tree.InsertCloud(cloud.Origin, scan)
			}
			sr.insert.add(time.Since(start))
			sr.leafUpdates += tree.LeafUpdates() - leaves
		}
		phase := mission.Update(pos)
		if phase != planning.PhaseTakeoff {
			remaining = remaining[:0]
			for j := k; j < len(samples) && j < k+40; j++ {
				remaining = append(remaining, samples[j].Pos)
			}
			start := time.Now()
			checker.Check(tree, pos, vel, remaining, nil)
			sr.check.add(time.Since(start))
		}
		if k > 0 && strings.Contains(samples[k-1].Event, "replan") {
			from := pos
			if from.Z < cc.zMin {
				from.Z = cc.zMin + 0.1
			}
			start := time.Now()
			planner.Plan(from, mission.NavGoal(), cc, rng)
			sr.plan.add(time.Since(start))
		}
		pos, vel, yaw = samples[k].Pos, samples[k].Vel, samples[k].Yaw
	}
}

// mapChecker is the planners' view of the octree, restricted to the
// planning altitude band — the same contract the pipeline's own adapter
// implements, rebuilt here from public octomap calls.
type mapChecker struct {
	tree       *octomap.Tree
	policy     octomap.QueryPolicy
	zMin, zMax float64
}

// BeginPlan implements planning.PlanCacher.
func (m *mapChecker) BeginPlan() { m.tree.EnableClassCache() }

// PointFree implements planning.CollisionChecker.
func (m *mapChecker) PointFree(p geom.Vec3) bool {
	if p.Z < m.zMin || p.Z > m.zMax {
		return false
	}
	return m.tree.PointFree(p, m.policy)
}

// SegmentFree implements planning.CollisionChecker.
func (m *mapChecker) SegmentFree(p, q geom.Vec3) bool {
	if p.Z < m.zMin || p.Z > m.zMax || q.Z < m.zMin || q.Z > m.zMax {
		return false
	}
	return m.tree.SegmentFree(p, q, m.policy)
}

// report records the mission-internal split. For campaign.pool_busy_frac
// the shadowed missions' mean host time stands for every mission of the
// timed phase.
func (sr *shadowResult) report(b *bench, workers int) {
	sum := 0.0
	for _, v := range sr.missionMS {
		sum += v
	}
	n := float64(len(sr.missionMS))
	b.layer("pipeline.mission_ms_p50", quantile(sr.missionMS, 0.5))
	b.layer("pipeline.mission_ms_p90", quantile(sr.missionMS, 0.9))
	b.layer("pipeline.alloc_kb_per_mission", mean(sr.allocBytes)/1024)
	timedMissions := 0
	for _, r := range b.rounds {
		timedMissions += r.missions
	}
	if n > 0 && timedMissions > 0 {
		busy := float64(timedMissions) * sum / n / (float64(workers) * ms(b.timedWall()))
		b.layer("campaign.pool_busy_frac", busy)
	}
	b.layer("sim.capture_us", sr.capture.perCall(time.Microsecond))
	b.layer("pointcloud.generate_us", sr.generate.perCall(time.Microsecond))
	b.layer("octomap.insert_us", sr.insert.perCall(time.Microsecond))
	b.layer("octomap.fork_us", sr.fork.perCall(time.Microsecond))
	if sr.insert.n > 0 {
		b.layer("octomap.leaf_updates_per_scan", float64(sr.leafUpdates)/float64(sr.insert.n))
	}
	if sum > 0 {
		b.layer("octomap.insert_share", ms(sr.insert.total)/sum)
	}
	b.layer("perception.check_us", sr.check.perCall(time.Microsecond))
	b.layer("planning.plan_ms", sr.plan.perCall(time.Millisecond))
	if n > 0 {
		b.layer("planning.plans_per_mission", float64(sr.plans)/n)
	}
	b.layer("detect.gad_observe_us", sr.gad.perCall(time.Microsecond))
	b.layer("detect.aad_observe_us", sr.aad.perCall(time.Microsecond))
}

// Detector training mirrors matrix.Assets: the corpus is collected at
// seed+1000 on trainEnvs environments, GAD fits at 4σ and AAD initializes
// at seed+2000.
const gadSigma = 4

// shadowTraining times the three training steps from cold and returns the
// trained detectors (aad only when withAAD).
func shadowTraining(ctx context.Context, b *bench, seed int64, trainEnvs int, withAAD bool) (*detect.GAD, *detect.AAD, error) {
	runner := campaign.New(campaign.WithWorkers(poolWorkers))
	start := time.Now()
	data, err := pipeline.CollectTrainingDataOn(ctx, runner, trainEnvs, seed+1000, platform.I9())
	if err != nil {
		return nil, nil, err
	}
	b.layer("pipeline.collect_training_s", time.Since(start).Seconds())
	start = time.Now()
	gad := pipeline.TrainGAD(data, gadSigma)
	b.layer("pipeline.train_gad_s", time.Since(start).Seconds())
	if !withAAD {
		return gad, nil, nil
	}
	start = time.Now()
	aad := pipeline.TrainAAD(data, detect.DefaultAADConfig(), seed+2000)
	b.layer("pipeline.train_aad_s", time.Since(start).Seconds())
	return gad, aad, nil
}

// shadowAssets times cold builds of the matrix-layer assets: each world
// (including its lazy obstacle index), one kernel calibration flight per
// world, and the golden map of each world in seedWorlds.
func shadowAssets(b *bench, worlds []string, seed int64, seedWorlds []string) error {
	var build, calib, seeds time.Duration
	for _, name := range worlds {
		start := time.Now()
		w, err := matrix.World(name)
		if err != nil {
			return err
		}
		w.Collides(w.Start, sim.DefaultParams().Radius)
		build += time.Since(start)

		a := matrix.NewAssets()
		if _, err := a.World(name); err != nil {
			return err
		}
		start = time.Now()
		if _, err := a.Counter(name, seed, 0); err != nil {
			return err
		}
		calib += time.Since(start)
	}
	for _, name := range seedWorlds {
		w, err := matrix.World(name)
		if err != nil {
			return err
		}
		start := time.Now()
		pipeline.BuildMapSeed(w)
		seeds += time.Since(start)
	}
	b.layer("matrix.world_build_s", build.Seconds())
	b.layer("matrix.calibrate_s", calib.Seconds())
	b.layer("matrix.mapseed_build_s", seeds.Seconds())
	return nil
}

// cellMissions builds the shadow list for a matrix result whose missions
// ran on assets: the same per-mission configuration matrix.RunOn derives
// (world, mission seed, drawn fault, detector clone, golden map).
func cellMissions(ctx context.Context, res *matrix.Result, assets *matrix.Assets) ([]shadowMission, error) {
	spec := res.Spec
	runner := campaign.New(campaign.WithWorkers(poolWorkers))
	var out []shadowMission
	for _, cr := range res.Cells {
		cell := cr.Cell
		w, err := assets.World(cell.World)
		if err != nil {
			return nil, err
		}
		mk, err := assets.Detector(ctx, runner, cell.Detector, spec.Seed, spec.TrainEnvs)
		if err != nil {
			return nil, err
		}
		var seed *pipeline.MapSeed
		if spec.MapSeed != "off" {
			if seed, err = assets.MapSeed(cell.World); err != nil {
				return nil, err
			}
		}
		for j, m := range cr.Campaign.Results {
			j, plan, want := j, cr.Plans[j], m
			out = append(out, shadowMission{
				want: &want,
				cfg: func() pipeline.Config {
					cfg := pipeline.Config{
						World:           w,
						Seed:            cell.MissionSeed(j),
						MaxMissionS:     spec.MaxMissionS,
						MapSeed:         seed,
						NearFieldStride: spec.NearFieldStride,
						MemoSkip:        spec.MapSeed == "memo",
					}
					cfg.SetFault(plan)
					if mk != nil {
						cfg.Detector = mk()
						cfg.DetectOnly = !cell.Recovery
					}
					return cfg
				},
			})
		}
	}
	return out, nil
}
