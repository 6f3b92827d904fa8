package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mavfi/internal/record"
	"mavfi/internal/sim"
)

// The checks below are computed apart from the program: they parse the
// CSV bytes the program emits and re-derive what must hold, rather than
// calling the program's own aggregation code.

// cellHeader and summaryHeader are the published CSV schemas.
const (
	cellHeader    = "mission,seed,outcome,flight_s,energy_j,distance_m,compute_s,detect_s,alarms,recomputes,injected_at_s,first_alarm_s,fault"
	summaryHeader = "cell,world,family,severity,detector,recovery,runs,success_rate,crash,timeout,battery,panic,deadline,fired,mean_flight_s,mean_alarms,mean_detect_latency_s"
)

// missionRow is one parsed per-mission CSV row. raw keeps the fields as
// written, for byte-level comparisons.
type missionRow struct {
	mission                  int
	outcome                  string
	flight, energy, distance float64
	alarms, recomputes       int
	injectedAt, firstAlarm   float64
	raw                      []string
}

// parseCellCSV parses a per-mission CSV.
func parseCellCSV(s string) ([]missionRow, error) {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) == 0 || lines[0] != cellHeader {
		return nil, fmt.Errorf("cell CSV header %q, want %q", firstLine(s), cellHeader)
	}
	var rows []missionRow
	for n, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 13 {
			return nil, fmt.Errorf("cell CSV row %d has %d fields, want 13", n+1, len(f))
		}
		var p parser
		r := missionRow{
			mission:    p.int(f[0]),
			outcome:    f[2],
			flight:     p.float(f[3]),
			energy:     p.float(f[4]),
			distance:   p.float(f[5]),
			alarms:     p.int(f[8]),
			recomputes: p.int(f[9]),
			injectedAt: p.float(f[10]),
			firstAlarm: p.float(f[11]),
			raw:        f,
		}
		p.int(f[1])
		p.float(f[6])
		p.float(f[7])
		if p.err != nil {
			return nil, fmt.Errorf("cell CSV row %d: %w", n+1, p.err)
		}
		if r.mission != n {
			return nil, fmt.Errorf("cell CSV row %d is mission %d", n+1, r.mission)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// summaryRow is one parsed summary.csv row.
type summaryRow struct {
	cell                                             int
	runs                                             int
	successRate                                      float64
	crash, timeout, battery, panics, deadline, fired int
	meanFlight, meanAlarms                           float64
	latency                                          string
}

// parseSummaryCSV parses summary.csv.
func parseSummaryCSV(s string) ([]summaryRow, error) {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) == 0 || lines[0] != summaryHeader {
		return nil, fmt.Errorf("summary header %q, want %q", firstLine(s), summaryHeader)
	}
	var rows []summaryRow
	for n, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 17 {
			return nil, fmt.Errorf("summary row %d has %d fields, want 17", n+1, len(f))
		}
		var p parser
		rows = append(rows, summaryRow{
			cell:        p.int(f[0]),
			runs:        p.int(f[6]),
			successRate: p.float(f[7]),
			crash:       p.int(f[8]),
			timeout:     p.int(f[9]),
			battery:     p.int(f[10]),
			panics:      p.int(f[11]),
			deadline:    p.int(f[12]),
			fired:       p.int(f[13]),
			meanFlight:  p.float(f[14]),
			meanAlarms:  p.float(f[15]),
			latency:     f[16],
		})
		if p.err != nil {
			return nil, fmt.Errorf("summary row %d: %w", n+1, p.err)
		}
	}
	return rows, nil
}

// parser collects the first conversion error.
type parser struct{ err error }

func (p *parser) int(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil && p.err == nil {
		p.err = err
	}
	return v
}

func (p *parser) float(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil && p.err == nil {
		p.err = err
	}
	return v
}

func firstLine(s string) string {
	l, _, _ := strings.Cut(s, "\n")
	return l
}

// checkSummary is check (a): every summary row must equal the aggregate
// recomputed from its cell's per-mission rows. cells maps the summary's
// cell index to that cell's CSV. Counts must match exactly; means are
// compared to a relative 1e-9, since the program sums in another order.
func checkSummary(cells map[int]string, summary string) error {
	rows, err := parseSummaryCSV(summary)
	if err != nil {
		return err
	}
	if len(rows) != len(cells) {
		return fmt.Errorf("summary has %d rows for %d cells", len(rows), len(cells))
	}
	for _, s := range rows {
		csv, ok := cells[s.cell]
		if !ok {
			return fmt.Errorf("summary row for unknown cell %d", s.cell)
		}
		ms, err := parseCellCSV(csv)
		if err != nil {
			return fmt.Errorf("cell %d: %w", s.cell, err)
		}
		var want summaryRow
		want.runs = len(ms)
		var successes, flightSum, alarmSum, latSum float64
		var latN int
		for _, m := range ms {
			switch m.outcome {
			case "success":
				successes++
				flightSum += m.flight
			case "crash":
				want.crash++
			case "timeout":
				want.timeout++
			case "battery-out":
				want.battery++
			case "panic":
				want.panics++
			case "deadline-exceeded":
				want.deadline++
			default:
				return fmt.Errorf("cell %d mission %d: unknown outcome %q", s.cell, m.mission, m.outcome)
			}
			if m.injectedAt > 0 {
				want.fired++
				if m.firstAlarm >= m.injectedAt {
					latSum += m.firstAlarm - m.injectedAt
					latN++
				}
			}
			alarmSum += float64(m.alarms)
		}
		if want.runs > 0 {
			want.successRate = successes / float64(want.runs)
			want.meanAlarms = alarmSum / float64(want.runs)
		}
		if successes > 0 {
			want.meanFlight = flightSum / successes
		}
		counts := [][3]any{
			{"runs", s.runs, want.runs},
			{"crash", s.crash, want.crash},
			{"timeout", s.timeout, want.timeout},
			{"battery", s.battery, want.battery},
			{"panic", s.panics, want.panics},
			{"deadline", s.deadline, want.deadline},
			{"fired", s.fired, want.fired},
		}
		for _, c := range counts {
			if c[1] != c[2] {
				return fmt.Errorf("cell %d: summary %s = %v, per-mission rows give %v", s.cell, c[0], c[1], c[2])
			}
		}
		floats := [][3]any{
			{"success_rate", s.successRate, want.successRate},
			{"mean_flight_s", s.meanFlight, want.meanFlight},
			{"mean_alarms", s.meanAlarms, want.meanAlarms},
		}
		for _, c := range floats {
			if !approxEq(c[1].(float64), c[2].(float64)) {
				return fmt.Errorf("cell %d: summary %s = %v, per-mission rows give %v", s.cell, c[0], c[1], c[2])
			}
		}
		if latN == 0 {
			if s.latency != "" {
				return fmt.Errorf("cell %d: summary latency %q with no detected fault", s.cell, s.latency)
			}
		} else {
			lat, err := strconv.ParseFloat(s.latency, 64)
			if err != nil || lat < 0 || !approxEq(lat, latSum/float64(latN)) {
				return fmt.Errorf("cell %d: summary latency %q, per-mission rows give %v", s.cell, s.latency, latSum/float64(latN))
			}
		}
	}
	return nil
}

// approxEq reports whether a and b agree to a relative 1e-9.
func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// propsSpec is what check (b) needs to know about a cell.
type propsSpec struct {
	detector    string
	severity    float64 // fault severity scale (bounds the wind-fault gust)
	maxMissionS float64 // mission budget (0 = the 180 s pipeline default)
}

// Wind bounds on top of the airframe's speed limit: the per-mission
// ambient wind is at most 0.7 m/s, per-tick gusts are N(0, 0.15²) per axis
// (1 m/s is a generous bound on their mean), and a wind fault peaks at
// 3.5 m/s × severity × the plan's 1.25 jitter ceiling.
const (
	ambientWindMax = 0.7
	gustMargin     = 1.0
	faultGustPeak  = 3.5 * 1.25
	// tickS is the control period: a timed-out mission's clock can pass
	// the budget by at most one tick before the loop exits.
	tickS = 0.1
)

// checkMissionProps is check (b): per-mission physical and bookkeeping
// properties every mission must satisfy whatever the fault.
func checkMissionProps(csv string, p propsSpec) error {
	rows, err := parseCellCSV(csv)
	if err != nil {
		return err
	}
	budget := p.maxMissionS
	if budget <= 0 {
		budget = 180
	}
	maxSpeed := sim.DefaultParams().MaxSpeed + ambientWindMax + gustMargin + faultGustPeak*p.severity
	for _, m := range rows {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("mission %d: %s", m.mission, fmt.Sprintf(format, args...))
		}
		for name, v := range map[string]float64{"flight_s": m.flight, "energy_j": m.energy, "distance_m": m.distance} {
			if !(v > 0) || math.IsInf(v, 0) {
				return bad("%s = %v, want finite and positive", name, v)
			}
		}
		if m.flight > budget+tickS {
			return bad("flight_s %v exceeds the %v s budget", m.flight, budget)
		}
		if speed := m.distance / m.flight; speed > maxSpeed {
			return bad("mean speed %.3f m/s exceeds %.3f m/s", speed, maxSpeed)
		}
		if p.detector == "none" && (m.alarms != 0 || m.recomputes != 0) {
			return bad("detector none but %d alarms, %d recomputes", m.alarms, m.recomputes)
		}
		if m.injectedAt < 0 || m.injectedAt > m.flight {
			return bad("injected_at_s %v outside (0, flight_s %v]", m.injectedAt, m.flight)
		}
		if m.firstAlarm < 0 || m.firstAlarm > m.flight {
			return bad("first_alarm_s %v outside [0, flight_s %v]", m.firstAlarm, m.flight)
		}
		if m.outcome == "panic" || m.outcome == "deadline-exceeded" {
			return bad("outcome %s", m.outcome)
		}
	}
	return nil
}

// checkBytesEqual is check (c): got must equal want byte for byte.
func checkBytesEqual(what, got, want string) error {
	if got == want {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s differs from the in-process reference at byte %d (%d vs %d bytes): got %q, want %q",
		what, i, len(got), len(want), excerpt(got, i), excerpt(want, i))
}

func excerpt(s string, i int) string {
	lo, hi := max(0, i-20), min(len(s), i+20)
	return s[lo:hi]
}

// checkRecording is check (d): a recording's footer metrics must equal its
// mission's served CSV row, field for field in the CSV's own rendering.
func checkRecording(m *record.Mission, row missionRow) error {
	if !m.Complete {
		return fmt.Errorf("recording has no footer")
	}
	r := m.Footer.Result.Metrics()
	want := []string{
		r.Outcome.String(), fm(r.FlightTimeS), fm(r.EnergyJ), fm(r.DistanceM),
		fm(r.ComputeS), fm(r.DetectS), strconv.Itoa(r.Alarms), strconv.Itoa(r.Recomputes),
		fm(r.InjectedAtS), fm(r.FirstAlarmS),
	}
	names := []string{"outcome", "flight_s", "energy_j", "distance_m", "compute_s", "detect_s", "alarms", "recomputes", "injected_at_s", "first_alarm_s"}
	for i, w := range want {
		if got := row.raw[i+2]; got != w {
			return fmt.Errorf("mission %d: CSV %s = %s, recording footer says %s", row.mission, names[i], got, w)
		}
	}
	if m.Header.Seed != mustInt64(row.raw[1]) {
		return fmt.Errorf("mission %d: CSV seed %s, recording header seed %d", row.mission, row.raw[1], m.Header.Seed)
	}
	return nil
}

// fm renders a float the way the published CSVs do (shortest round-trip).
func fm(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func mustInt64(s string) int64 {
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}
