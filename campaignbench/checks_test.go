package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
	"mavfi/internal/pipeline"
	"mavfi/internal/record"
)

// smallResult runs a two-cell, three-mission matrix in-process.
func smallResult(t *testing.T) *matrix.Result {
	t.Helper()
	res, err := matrix.Run(context.Background(), matrix.Spec{
		Worlds:     []string{"sparse"},
		Families:   []faultinject.Family{faultinject.FamilyWind, faultinject.FamilySensor},
		Severities: []matrix.Severity{{Name: "high", Scale: 1}},
		Runs:       3,
		Seed:       5,
		Workers:    poolWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tamper rewrites field col of data row row (1-based, after the header).
func tamper(csv string, row, col int, value string) string {
	lines := strings.Split(csv, "\n")
	f := strings.Split(lines[row], ",")
	f[col] = value
	lines[row] = strings.Join(f, ",")
	return strings.Join(lines, "\n")
}

func TestChecksAcceptGoodOutput(t *testing.T) {
	res := smallResult(t)
	cells, summary := matrixCSVs(res)
	if err := checkSummary(cells, summary); err != nil {
		t.Fatalf("(a) on untouched output: %v", err)
	}
	for i, csv := range cells {
		if err := checkMissionProps(csv, propsSpec{"none", 1, 0}); err != nil {
			t.Fatalf("(b) on untouched cell %d: %v", i, err)
		}
	}
}

func TestChecksRejectTamperedOutput(t *testing.T) {
	res := smallResult(t)
	cells, summary := matrixCSVs(res)
	row := strings.Split(cells[0], "\n")[1]
	flipped := "crash"
	if strings.Split(row, ",")[2] == "crash" {
		flipped = "success"
	}

	cases := []struct {
		name string
		err  func() error
	}{
		{"(a) flipped outcome", func() error {
			c := map[int]string{0: tamper(cells[0], 1, 2, flipped), 1: cells[1]}
			return checkSummary(c, summary)
		}},
		{"(a) dropped row", func() error {
			lines := strings.SplitAfter(cells[1], "\n")
			c := map[int]string{0: cells[0], 1: strings.Join(lines[:len(lines)-2], "")}
			return checkSummary(c, summary)
		}},
		{"(a) changed summary mean", func() error {
			return checkSummary(cells, tamper(summary, 1, 14, "1.5"))
		}},
		{"(b) negative energy", func() error {
			return checkMissionProps(tamper(cells[0], 1, 4, "-1"), propsSpec{"none", 1, 0})
		}},
		{"(b) flight over budget", func() error {
			return checkMissionProps(tamper(cells[0], 1, 3, "400"), propsSpec{"none", 1, 0})
		}},
		{"(b) alarms without a detector", func() error {
			return checkMissionProps(tamper(cells[0], 1, 8, "2"), propsSpec{"none", 1, 0})
		}},
		{"(b) injection after landing", func() error {
			return checkMissionProps(tamper(cells[0], 1, 10, "999"), propsSpec{"none", 1, 0})
		}},
		{"(c) one changed CSV byte", func() error {
			b := []byte(cells[0])
			b[len(b)/2] ^= 1
			return checkBytesEqual("cell", string(b), cells[0])
		}},
	}
	for _, c := range cases {
		if err := c.err(); err == nil {
			t.Errorf("%s: check passed on tampered input", c.name)
		}
	}
}

func TestRecordingChecks(t *testing.T) {
	res := smallResult(t)
	cell := res.Cells[0]
	rows, err := parseCellCSV(cell.CSV())
	if err != nil {
		t.Fatal(err)
	}
	w, err := matrix.World("sparse")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := pipeline.Config{World: w, Seed: cell.Cell.MissionSeed(0)}
	cfg.SetFault(cell.Plans[0])
	if _, err := record.RecordedMission(dir, 0, cfg); err != nil {
		t.Fatal(err)
	}
	path := record.MissionPath(dir, 0)
	m, err := record.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRecording(m, rows[0]); err != nil {
		t.Fatalf("(d) on the matching row: %v", err)
	}
	if err := checkRecording(m, rows[1]); err == nil {
		t.Error("(d) passed against another mission's row")
	}
	if _, err := verify(path); err != nil {
		t.Fatalf("verify on an untouched recording: %v", err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	bad := filepath.Join(dir, "corrupt.rec")
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := verify(bad); err == nil {
		t.Error("a corrupted recording opened and verified")
	}
}

// TestWorkloadsTiny runs every workload once at tiny scale, traced, and
// requires a correct result with every per-layer metric present, every one
// on the workload's path but the counts measured, and every other one 0.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("flies missions")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(context.Background(), options{
				workload: name, seed: 3, seconds: 0.01, trace: true, tiny: true, scratch: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			if name == "served-replay" {
				jobs := servedJobs(3, true)
				if want := jobs[len(jobs)-1].Runs; res.Failed != want {
					t.Errorf("failed = %d, want the %d memo-mode divergences", res.Failed, want)
				}
			} else if res.Failed != 0 {
				t.Errorf("failed = %d", res.Failed)
			}
			initial := strings.ToUpper(name[:1])
			for m, l := range layers {
				v, ok := res.Metrics[m]
				onPath := strings.Contains(l.path, initial)
				switch {
				case !ok:
					t.Errorf("traced run lacks %s", m)
				case onPath && l.unit != "count" && v.Value == 0:
					t.Errorf("traced run reports %s = 0 on the workload's path", m)
				case !onPath && v.Value != 0:
					t.Errorf("traced run reports %s = %v off the workload's path", m, v.Value)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this program in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	e2e := (&bench{}).endToEnd()
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics declared, %d reported", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: declared unit %q, reported %q", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(spec.PerLayer) != len(layers) {
		t.Errorf("%d per-layer metrics declared, %d reported", len(spec.PerLayer), len(layers))
	}
	for _, m := range spec.PerLayer {
		if layers[m.Name].unit != m.Unit {
			t.Errorf("per-layer %s: declared unit %q, reported %q", m.Name, m.Unit, layers[m.Name].unit)
		}
	}
}

// TestYawHazard pins the screen to the exponent bits that can make a yaw
// large enough to stall geom.WrapAngle, whatever the yaw's value.
func TestYawHazard(t *testing.T) {
	for bit := uint(50); bit < 64; bit++ {
		want := bit >= 57 && bit <= 62
		state := faultinject.FaultPlan{State: &faultinject.StatePlan{State: faultinject.StateWpYaw, Bit: bit}}
		kernel := faultinject.FaultPlan{Kernel: &faultinject.Plan{Kernel: faultinject.KernelPlanner, Index: 10, Bit: bit}}
		if got := yawHazard(state); got != want {
			t.Errorf("wp_yaw bit %d: hazard %v, want %v", bit, got, want)
		}
		if got := yawHazard(kernel); got != want {
			t.Errorf("planner yaw bit %d: hazard %v, want %v", bit, got, want)
		}
	}
	offYaw := faultinject.FaultPlan{Kernel: &faultinject.Plan{Kernel: faultinject.KernelPlanner, Index: 11, Bit: 62}}
	if yawHazard(offYaw) {
		t.Error("planner flip off a yaw flagged")
	}
}
