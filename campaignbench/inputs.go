package main

import (
	"fmt"
	"math/rand"

	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
	"mavfi/internal/pipeline"
)

// A bit flip high in a yaw angle's exponent turns it into a huge finite
// value. The vehicle's yaw slew, sim.(*MAV).Step, wraps the commanded yaw
// with geom.WrapAngle, which subtracts 2π until the angle is in range: at
// 2^33 that takes over a billion steps per call, and from about 2^55 on the
// subtraction no longer changes the value and the mission never ends. Which
// bits get there depends on the yaw: below 1 rad a flip of bit 62 does; for
// |yaw| in [2, π] bit 62 is already set and flips of bits 57–61 do. Two
// fault mechanisms can deliver such a yaw: a message-level flip of the
// way-point yaw (state wp_yaw) and a planner-kernel flip that lands on a
// trajectory point's yaw (the planner hook sees x, y, z, yaw, vx, vy, vz per
// point, so every seventh value from the fourth is a yaw). The screen below
// cannot see the yaw's value, so it flags any flip of bits 57–62 on a yaw.
// Without a wall-clock deadline — which the benchmark must not set, since
// deadlines break byte-identity — one such mission hangs its whole
// campaign. The benchmark therefore leaves out inputs whose fault draw
// contains one (CHANGES.md records the fault).
const (
	yawHazardLowBit  = 57
	yawHazardHighBit = 62
)

// yawHazard reports whether plan can deliver a non-terminating yaw.
func yawHazard(p faultinject.FaultPlan) bool {
	high := func(bit uint) bool { return bit >= yawHazardLowBit && bit <= yawHazardHighBit }
	switch {
	case p.State != nil:
		return p.State.State == faultinject.StateWpYaw && high(p.State.Bit)
	case p.Kernel != nil:
		return p.Kernel.Kernel == faultinject.KernelPlanner && p.Kernel.Index%7 == 3 && high(p.Kernel.Bit)
	}
	return false
}

// drawPlans reproduces the fault schedule matrix.RunOn draws for spec —
// one plan RNG per cell seeded by the cell seed, one DrawFault per mission
// over the world's nominal duration, kernel indices from each world's
// calibration counter — and returns every plan, cell by cell.
func drawPlans(spec matrix.Spec, assets *matrix.Assets) ([][]faultinject.FaultPlan, error) {
	spec = spec.Normalized()
	var out [][]faultinject.FaultPlan
	for _, cell := range matrix.Cells(spec) {
		w, err := assets.World(cell.World)
		if err != nil {
			return nil, err
		}
		var ctr *faultinject.Counter
		if cell.Family == faultinject.FamilyKernel {
			if ctr, err = assets.Counter(cell.World, spec.Seed, spec.MaxMissionS); err != nil {
				return nil, err
			}
		}
		ds := faultinject.NewDrawSpec(pipeline.NominalDuration(pipeline.Config{World: w, MaxMissionS: spec.MaxMissionS}), cell.Severity.Scale)
		if cell.Kind != "" {
			_, restricted, err := faultinject.ParseTarget(cell.Target().String())
			if err != nil {
				return nil, err
			}
			ds.Kernel, ds.State, ds.SensorKind, ds.ActuatorKind = restricted.Kernel, restricted.State, restricted.SensorKind, restricted.ActuatorKind
		}
		rng := rand.New(rand.NewSource(cell.Seed))
		plans := make([]faultinject.FaultPlan, spec.Runs)
		for j := range plans {
			plans[j] = faultinject.DrawFault(cell.Family, ds, ctr, rng)
		}
		out = append(out, plans)
	}
	return out, nil
}

// pickSeed returns the first matrix seed, in a fixed sequence derived from
// seed, whose specs (built by specs) draw no yaw hazard. The sequence
// starts at seed itself; most seeds are accepted as they are.
func pickSeed(seed int64, specs func(int64) []matrix.Spec) (int64, error) {
	assets := matrix.NewAssets()
	for k := 0; k < 64; k++ {
		s := seed
		if k > 0 {
			s = campaign.MissionSeed(seed, k)
		}
		clean := true
		for _, spec := range specs(s) {
			plans, err := drawPlans(spec, assets)
			if err != nil {
				return 0, err
			}
			for _, cell := range plans {
				for _, p := range cell {
					clean = clean && !yawHazard(p)
				}
			}
		}
		if clean {
			if k > 0 {
				logf("seed %d draws a non-terminating yaw fault; using derived seed %d", seed, s)
			}
			return s, nil
		}
	}
	return 0, fmt.Errorf("no hazard-free seed derived from %d", seed)
}
