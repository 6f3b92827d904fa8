package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
	"mavfi/internal/pipeline"
	"mavfi/internal/record"
	"mavfi/internal/server"
)

// servedWorlds are the environments of the served jobs.
var servedWorlds = []string{"sparse", "dense", "factory", "farm"}

// servedRuns is the mission count of every exact served job: two, so one
// job keeps both campaign workers busy.
const servedRuns = 2

// servedBudgetS is the exact jobs' mission time budget. A mission that
// times out hovers to the end of its budget; at the 180 s default one such
// mission (and its Verify re-flight) costs about seven ordinary ones, so a
// single timeout among a round's 40 missions moved missions_per_s by a
// sixth. At 60 s it costs about two and a half; ordinary flights take 15
// to 30 s.
const servedBudgetS = 60

// memoJob is the fixed share of memo-mode recorded jobs, one per round. Its
// inputs do not depend on the run's seed: record.Header does not persist
// the map-seed mode, so Verify re-flies these recordings from an empty map
// and every one of them diverges, on every run. Each divergence is counted
// as a failed operation (and as record.verify_failed). The fault is
// program-side; the job stays in the mix so that its repair shows up.
var memoJob = server.JobSpec{
	World:    "dense",
	Fault:    "wind",
	Severity: "high",
	Detector: "none",
	Runs:     2,
	Seed:     1,
	MapSeed:  "memo",
	Record:   true,
}

// servedJobs returns one round: an exact recorded job for every world and
// fault family, then the memo job. The seed deals the severities (low, med,
// high in turn) and the detectors (none, or gad with recovery, in turn) out
// to the jobs in shuffled order: every round carries the same counts of
// each, which keeps the mix of mission lengths alike across seeds. Every
// exact job shares the seed, so the server trains GAD and calibrates each
// world once, during set-up.
func servedJobs(seed int64, tiny bool) []server.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	worlds, families := servedWorlds, faultinject.Families()
	runs, memo := servedRuns, memoJob
	if tiny {
		worlds, families = worlds[:1], []faultinject.Family{faultinject.FamilyKernel, faultinject.FamilyWind}
		runs, memo.Runs = 1, 1
	}
	n := len(worlds) * len(families)
	sevs, dets := rng.Perm(n), rng.Perm(n)
	var jobs []server.JobSpec
	for _, w := range worlds {
		for _, f := range families {
			i := len(jobs)
			jobs = append(jobs, server.JobSpec{
				World:       w,
				Fault:       f.String(),
				Severity:    []string{"low", "med", "high"}[sevs[i]%3],
				Detector:    []string{"none", "gad"}[dets[i]%2],
				Recovery:    true,
				Runs:        runs,
				Seed:        seed,
				MaxMissionS: servedBudgetS,
				MapSeed:     "off",
				Record:      true,
			})
		}
	}
	if tiny {
		for i := range jobs {
			jobs[i].TrainEnvs = 2
		}
	}
	return append(jobs, memo)
}

// jobMatrixSpec builds a served job's single-cell matrix.Spec from the job's
// fields, independently of the server's own conversion.
func jobMatrixSpec(js server.JobSpec) (matrix.Spec, error) {
	targets, err := matrix.ParseTargets(js.Fault)
	if err != nil {
		return matrix.Spec{}, err
	}
	sevs, err := matrix.ParseSeverities(js.Severity)
	if err != nil {
		return matrix.Spec{}, err
	}
	return matrix.Spec{
		Worlds:      []string{js.World},
		Targets:     targets,
		Severities:  sevs,
		Detectors:   []string{js.Detector},
		Recoveries:  []bool{js.Recovery},
		Runs:        js.Runs,
		Seed:        js.Seed,
		MaxMissionS: js.MaxMissionS,
		TrainEnvs:   js.TrainEnvs,
		MapSeed:     js.MapSeed,
		Workers:     poolWorkers,
	}.Normalized(), nil
}

// servedSeed screens the exact jobs' fault draws (see inputs.go).
func servedSeed(seed int64, tiny bool) (int64, error) {
	return pickSeed(seed, func(s int64) []matrix.Spec {
		var specs []matrix.Spec
		for _, js := range servedJobs(s, tiny) {
			if js.MapSeed == "off" {
				spec, err := jobMatrixSpec(js)
				if err != nil {
					panic(err) // the job list is built above from valid names
				}
				specs = append(specs, spec)
			}
		}
		return specs
	})
}

// servedStack is one in-process campaign server on a loopback listener plus
// the single-connection client that drives it.
type servedStack struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	recDir string
	client *http.Client
}

// startServed starts a server recording under dir.
func startServed(dir string) (*servedStack, error) {
	srv, err := server.New(server.Config{Queue: 16, Workers: poolWorkers, RecordDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &servedStack{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		recDir: dir,
		// One client connection: the load is one closed-loop client.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	go func() { st.served <- st.hs.Serve(ln) }()
	return st, nil
}

// close stops the listener, the server and the client, and waits for the
// serving goroutine to return.
func (st *servedStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st.hs.Shutdown(ctx)
	<-st.served
	st.srv.Close()
	st.client.CloseIdleConnections()
}

// jobResult is what the client observed for one job.
type jobResult struct {
	id         string
	spec       server.JobSpec
	csv        string
	total      time.Duration // POST to the terminal SSE event
	firstEvent time.Duration // POST to the first SSE mission event
	csvFetch   time.Duration
	err        error
}

// submit POSTs spec and returns the job's status (wait blocks until done).
func (st *servedStack) submit(ctx context.Context, spec server.JobSpec, wait bool) (server.Status, error) {
	var status server.Status
	body, err := json.Marshal(spec)
	if err != nil {
		return status, err
	}
	url := st.base + "/jobs"
	if wait {
		url += "?wait=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return status, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return status, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return status, fmt.Errorf("POST /jobs: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return status, fmt.Errorf("POST /jobs: decoding status: %w", err)
	}
	return status, nil
}

// get fetches one path as text.
func (st *servedStack) get(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return string(b), nil
}

// follow reads the job's SSE stream to its terminal event, noting when the
// first mission event arrived, and returns the terminal status.
func (st *servedStack) follow(ctx context.Context, id string, posted time.Time, first *time.Duration) (server.Status, error) {
	var status server.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.base+"/jobs/"+id+"/stream", nil)
	if err != nil {
		return status, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return status, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return status, fmt.Errorf("GET stream: HTTP %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return status, fmt.Errorf("stream of %s ended before its done event: %w", id, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "mission" && *first == 0 {
				*first = time.Since(posted)
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &status); err != nil {
				return status, fmt.Errorf("decoding done event: %w", err)
			}
			// Read to EOF so the connection returns to the pool.
			io.Copy(io.Discard, rd)
			return status, nil
		}
	}
}

// runJob drives one job through the service: submit, follow the stream to
// done, fetch cell.csv.
func (st *servedStack) runJob(ctx context.Context, spec server.JobSpec) jobResult {
	jr := jobResult{spec: spec}
	posted := time.Now()
	status, err := st.submit(ctx, spec, false)
	if err != nil {
		jr.err = err
		return jr
	}
	jr.id = status.ID
	status, err = st.follow(ctx, jr.id, posted, &jr.firstEvent)
	jr.total = time.Since(posted)
	if err != nil {
		jr.err = err
		return jr
	}
	if status.State != server.JobDone || status.Error != "" {
		jr.err = fmt.Errorf("job %s ended %s: %s", jr.id, status.State, status.Error)
		return jr
	}
	start := time.Now()
	jr.csv, jr.err = st.get(ctx, "/jobs/"+jr.id+"/cell.csv")
	jr.csvFetch = time.Since(start)
	return jr
}

// recording returns the path of mission j of a served job.
func (st *servedStack) recording(id string, j int) string {
	return record.MissionPath(filepath.Join(st.recDir, id), j)
}

// verify opens and verifies one recording, timing the re-flight.
func verify(path string) (time.Duration, error) {
	m, err := record.Open(path)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = m.Verify()
	return time.Since(start), err
}

// runServedReplay is the served-replay workload: one closed-loop client
// drives an in-process campaign server over loopback HTTP, job after job.
// Each round submits the exact recorded jobs of servedJobs and the fixed
// memo job; for each job the client follows the stream to done and fetches
// cell.csv, and for an exact job it verifies the job's recordings before
// the next submission. The memo recordings are verified after the timed
// phase, so that a repaired Verify (a full re-flight instead of an early
// divergence) does not read as a slowdown.
func runServedReplay(ctx context.Context, b *bench) error {
	seed, err := servedSeed(b.opt.seed, b.opt.tiny)
	if err != nil {
		return err
	}
	jobs := servedJobs(seed, b.opt.tiny)
	var st *servedStack
	n := 0
	release, err := b.setup(func() (func(), error) {
		n++
		s, err := startServed(b.scratchPath(fmt.Sprintf("server-%d", n)))
		if err != nil {
			return nil, err
		}
		st = s
		release := func() { s.close() }
		// Warm-up: per world, a one-mission kernel job with GAD calibrates
		// the world and (once) trains the detector; one memo mission builds
		// the dense golden map.
		warmed := map[string]bool{}
		for _, js := range jobs[:len(jobs)-1] {
			if warmed[js.World] {
				continue
			}
			warmed[js.World] = true
			warm := js
			warm.Fault, warm.Detector, warm.Severity, warm.Runs = "kernel", "gad", "low", 1
			if status, err := s.submit(ctx, warm, true); err != nil || status.State != server.JobDone {
				release()
				return nil, fmt.Errorf("warm-up job %+v: %v %s", warm, err, status.Error)
			}
		}
		warm := jobs[len(jobs)-1]
		warm.Runs = 1
		if status, err := s.submit(ctx, warm, true); err != nil || status.State != server.JobDone {
			release()
			return nil, fmt.Errorf("warm-up memo job: %v %s", err, status.Error)
		}
		return release, nil
	})
	if err != nil {
		return err
	}
	defer release()

	var all [][]jobResult // per round, per job
	var verifyTimes []float64
	b.timed(func(i int) round {
		var rd []jobResult
		start := time.Now()
		verifyFailed := 0
		for _, js := range jobs {
			jr := st.runJob(ctx, js)
			if jr.err == nil && js.MapSeed == "off" {
				for j := 0; j < js.Runs; j++ {
					d, err := verify(st.recording(jr.id, j))
					verifyTimes = append(verifyTimes, ms(d))
					if err != nil {
						verifyFailed++
						logf("round %d job %s mission %d: verify: %v", i+1, jr.id, j, err)
					}
				}
			}
			rd = append(rd, jr)
		}
		wall := time.Since(start)

		r := round{wall: wall}
		for _, jr := range rd {
			runs := jr.spec.Runs
			verifies := 0
			if jr.spec.MapSeed == "off" {
				verifies = runs // memo verifies are counted when they run
			}
			if jr.err != nil {
				logf("round %d: %v", i+1, jr.err)
				b.ops(runs+1+verifies, runs+1+verifies)
				continue
			}
			rows, err := parseCellCSV(jr.csv)
			if err != nil || len(rows) != runs {
				logf("round %d job %s: bad cell.csv: %v", i+1, jr.id, err)
				b.ops(runs+1+verifies, runs+1+verifies)
				continue
			}
			failed := 0
			for _, m := range rows {
				r.missions++
				r.flightS += m.flight
				if m.outcome == "panic" || m.outcome == "deadline-exceeded" {
					failed++
				}
			}
			b.ops(runs+1+verifies, failed)
		}
		b.ops(0, verifyFailed)
		all = append(all, rd)
		return r
	})

	// Memo-mode recordings, verified after the timed phase.
	memoFailed := 0
	for _, rd := range all {
		jr := rd[len(rd)-1]
		if jr.err != nil {
			b.ops(jr.spec.Runs, jr.spec.Runs)
			continue
		}
		for j := 0; j < jr.spec.Runs; j++ {
			b.ops(1, 0)
			if _, err := verify(st.recording(jr.id, j)); err != nil {
				memoFailed++
				b.ops(0, 1)
			}
		}
	}
	logf("memo-mode recordings that failed to verify: %d", memoFailed)

	ref := checkServed(ctx, b, st, all)

	if !b.opt.trace {
		return nil
	}
	return servedLayers(ctx, b, st, all, ref, jobs, verifyTimes, memoFailed)
}

// servedLayers computes the traced run's per-layer split: client-side
// server timings and recording figures from the timed phase, then shadow
// replay of the first round's missions.
func servedLayers(ctx context.Context, b *bench, st *servedStack, all [][]jobResult, ref *matrix.Assets, jobs []server.JobSpec, verifyTimes []float64, memoFailed int) error {
	seed := jobs[0].Seed
	var done []jobResult
	var bytesPer []float64
	for _, rd := range all {
		for _, jr := range rd {
			if jr.err != nil {
				continue
			}
			done = append(done, jr)
			for j := 0; j < jr.spec.Runs; j++ {
				if fi, err := os.Stat(st.recording(jr.id, j)); err == nil {
					bytesPer = append(bytesPer, float64(fi.Size()))
				}
			}
		}
	}
	serverLayers(b, done)
	b.layer("record.verify_ms", mean(verifyTimes))
	b.layer("record.bytes_per_mission", mean(bytesPer))
	b.layer("record.verify_failed", float64(memoFailed))

	if err := shadowAssets(b, servedWorlds, seed, []string{memoJob.World}); err != nil {
		return err
	}
	trainEnvs := jobs[0].TrainEnvs
	if trainEnvs == 0 {
		trainEnvs = 12
	}
	gad, _, err := shadowTraining(ctx, b, seed, trainEnvs, false)
	if err != nil {
		return err
	}
	missions, err := servedMissions(st, all[0], ref)
	if err != nil {
		return err
	}
	if err := recordOverhead(b, missions); err != nil {
		return err
	}
	sr, err := shadowMissions(missions, gad, nil)
	b.check("shadow replay reproduces the published missions", err)
	if err == nil {
		sr.report(b, poolWorkers)
	}
	return nil
}

// serverLayers records the client-side server timings of completed jobs.
func serverLayers(b *bench, jobs []jobResult) {
	var totals, firsts, fetches []float64
	for _, jr := range jobs {
		totals = append(totals, jr.total.Seconds())
		firsts = append(firsts, jr.firstEvent.Seconds())
		fetches = append(fetches, ms(jr.csvFetch))
	}
	b.layer("server.job_p50_s", quantile(totals, 0.5))
	b.layer("server.job_p90_s", quantile(totals, 0.9))
	b.layer("server.first_event_s", median(firsts))
	b.layer("server.csv_fetch_ms", median(fetches))
}

// checkServed runs checks (a)–(d) over every served job and returns the
// in-process reference assets (reused by the traced shadow replay).
func checkServed(ctx context.Context, b *bench, st *servedStack, all [][]jobResult) *matrix.Assets {
	var detErr error
	for i, rd := range all[1:] {
		for k, jr := range rd {
			if jr.err == nil && all[0][k].err == nil && detErr == nil {
				detErr = checkBytesEqual(fmt.Sprintf("round %d job %d cell.csv", i+2, k+1), jr.csv, all[0][k].csv)
			}
		}
	}
	b.check("rounds repeat byte-identically", detErr)

	ref := matrix.NewAssets()
	var aErr, bErr, cErr error
	for _, jr := range all[0] {
		if jr.err != nil {
			continue
		}
		summary, err := st.get(ctx, "/jobs/"+jr.id+"/summary.csv")
		if err != nil {
			aErr = errors.Join(aErr, err)
			continue
		}
		aErr = errors.Join(aErr, prefixErr(jr.id, checkSummary(map[int]string{0: jr.csv}, summary)))
		sevs, err := matrix.ParseSeverities(jr.spec.Severity)
		if err != nil {
			bErr = errors.Join(bErr, err)
			continue
		}
		bErr = errors.Join(bErr, prefixErr(jr.id, checkMissionProps(jr.csv, propsSpec{jr.spec.Detector, sevs[0].Scale, jr.spec.MaxMissionS})))

		res, err := runReference(ctx, jr.spec, ref)
		if err != nil {
			cErr = errors.Join(cErr, err)
			continue
		}
		cErr = errors.Join(cErr,
			checkBytesEqual(jr.id+" cell.csv", jr.csv, res.Cells[0].CSV()),
			checkBytesEqual(jr.id+" summary.csv", summary, res.SummaryCSV()))
	}
	b.check("served-replay (a) summary recomputation", aErr)
	b.check("served-replay (b) per-mission properties", bErr)
	b.check("served-replay (c) served CSVs equal in-process matrix.RunOn", cErr)

	var dErr error
	for _, rd := range all {
		for _, jr := range rd {
			if jr.err != nil {
				continue
			}
			rows, err := parseCellCSV(jr.csv)
			if err != nil {
				dErr = errors.Join(dErr, err)
				continue
			}
			for _, row := range rows {
				m, err := record.Open(st.recording(jr.id, row.mission))
				if err == nil {
					err = checkRecording(m, row)
				}
				dErr = errors.Join(dErr, prefixErr(jr.id, err))
			}
		}
	}
	b.check("served-replay (d) recording footers equal served CSV rows", dErr)
	return ref
}

// runReference runs a served job's cell in-process.
func runReference(ctx context.Context, js server.JobSpec, assets *matrix.Assets) (*matrix.Result, error) {
	spec, err := jobMatrixSpec(js)
	if err != nil {
		return nil, err
	}
	return matrix.RunOn(ctx, spec, assets)
}

// prefixErr labels err with a job ID.
func prefixErr(id string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", id, err)
}

// servedMissions rebuilds the shadow list of one round from its recordings.
// Recordings do not carry the map-seed mode (the known fault), so memo
// missions get their golden map and memo flag back from the job spec.
func servedMissions(st *servedStack, rd []jobResult, ref *matrix.Assets) ([]shadowMission, error) {
	var out []shadowMission
	for _, jr := range rd {
		if jr.err != nil {
			continue
		}
		var seed *pipeline.MapSeed
		if jr.spec.MapSeed != "off" {
			s, err := ref.MapSeed(jr.spec.World)
			if err != nil {
				return nil, err
			}
			seed = s
		}
		for j := 0; j < jr.spec.Runs; j++ {
			m, err := record.Open(st.recording(jr.id, j))
			if err != nil {
				return nil, err
			}
			want := m.Footer.Result.Metrics()
			memo := jr.spec.MapSeed == "memo"
			out = append(out, shadowMission{
				want: &want,
				cfg: func() pipeline.Config {
					cfg, err := m.Config()
					if err != nil {
						panic(fmt.Sprintf("recording %s mission %d: %v", jr.id, j, err))
					}
					cfg.Record = false
					cfg.MapSeed, cfg.MemoSkip = seed, memo
					return cfg
				},
			})
		}
	}
	return out, nil
}

// recordOverhead measures record.write_ms_per_mission: each mission flown
// plainly and through record.RecordedMission back to back, the difference
// averaged.
func recordOverhead(b *bench, missions []shadowMission) error {
	dir := b.scratchPath("record-overhead")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var diff []float64
	for i, m := range missions {
		start := time.Now()
		pipeline.RunMission(m.cfg())
		plain := time.Since(start)
		start = time.Now()
		res, err := record.RecordedMission(dir, i, m.cfg())
		recorded := time.Since(start)
		if err != nil {
			return err
		}
		if m.want != nil && res.Metrics != *m.want {
			return fmt.Errorf("recorded shadow mission %d diverged: %+v vs %+v", i, res.Metrics, *m.want)
		}
		diff = append(diff, ms(recorded-plain))
	}
	b.layer("record.write_ms_per_mission", mean(diff))
	return nil
}
