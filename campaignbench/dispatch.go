package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/dispatch"
	"mavfi/internal/faultinject"
)

// dispatchSpec is the dispatch-memo matrix: many one-mission cells —
// worlds {sparse, dense, factory, farm} × all five fault families × {low,
// med, high}, detector none — in memo map-seed mode, so per-cell lease, wire
// and state-file costs are a large share of the work and insertion is
// mostly skipped.
func dispatchSpec(seed int64, tiny bool) matrix.Spec {
	spec := matrix.Spec{
		Worlds:     []string{"sparse", "dense", "factory", "farm"},
		Families:   faultinject.Families(),
		Severities: []matrix.Severity{{Name: "low", Scale: 0.35}, {Name: "med", Scale: 0.6}, {Name: "high", Scale: 1.0}},
		Detectors:  []string{"none"},
		MapSeed:    "memo",
		Runs:       1,
		Seed:       seed,
		Workers:    1,
	}
	if tiny {
		spec.Worlds = []string{"sparse"}
		spec.Families = []faultinject.Family{faultinject.FamilyKernel, faultinject.FamilyWind}
	}
	return spec.Normalized()
}

// dispatchShards is the number of loopback worker shards, each running one
// campaign worker.
const dispatchShards = 2

// dispatchStack is a dispatcher serving its own seed endpoint plus its
// worker shards, all on loopback listeners in this process.
type dispatchStack struct {
	d        *dispatch.Dispatcher
	servers  []*http.Server
	served   chan error
	stateDir string
	shardTr  *http.Transport
	seedTr   *http.Transport
	probe    *layerProbe // nil unless traced
}

// layerProbe collects the traced run's dispatch timings: a wrapper around
// the dispatcher's shard client, one around each worker's handler, and one
// around the workers' seed-fetch transport.
type layerProbe struct {
	mu         sync.Mutex
	rtt        []float64 // dispatcher-side Exec round trips, ms
	workerExec []float64 // worker-side /exec handling, ms
	seedFetch  []float64 // seed GET to body close, ms
}

func (p *layerProbe) add(dst *[]float64, d time.Duration) {
	p.mu.Lock()
	*dst = append(*dst, ms(d))
	p.mu.Unlock()
}

// reset drops what set-up recorded, keeping the timed phase apart.
func (p *layerProbe) reset() {
	p.mu.Lock()
	p.rtt, p.workerExec = nil, nil
	p.mu.Unlock()
}

// timedClient times every Exec of the dispatcher's shard transport.
type timedClient struct {
	dispatch.ShardClient
	probe *layerProbe
}

func (c timedClient) Exec(ctx context.Context, addr string, unit dispatch.WorkUnit) (*dispatch.WorkResult, error) {
	start := time.Now()
	res, err := c.ShardClient.Exec(ctx, addr, unit)
	c.probe.add(&c.probe.rtt, time.Since(start))
	return res, err
}

// timedSeeds times each golden-map fetch from request to body close.
type timedSeeds struct {
	http.RoundTripper
	probe *layerProbe
}

func (t timedSeeds) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.RoundTripper.RoundTrip(req)
	if err == nil && strings.Contains(req.URL.Path, "/seeds/") {
		resp.Body = &closeTimer{ReadCloser: resp.Body, done: func() { t.probe.add(&t.probe.seedFetch, time.Since(start)) }}
	}
	return resp, err
}

type closeTimer struct {
	io.ReadCloser
	done func()
	once sync.Once
}

func (c *closeTimer) Close() error {
	c.once.Do(c.done)
	return c.ReadCloser.Close()
}

// serve serves h on ln until close shuts it down.
func (st *dispatchStack) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.servers = append(st.servers, hs)
	go func() { st.served <- hs.Serve(ln) }()
}

// startDispatch builds the dispatcher and its shards and warms every shard:
// per world, one unit makes the shard fetch the golden map from the
// dispatcher's seed endpoint and calibrate the world's kernel counter.
func startDispatch(ctx context.Context, dir string, spec matrix.Spec, traced bool) (*dispatchStack, error) {
	st := &dispatchStack{
		served:   make(chan error, dispatchShards+1),
		stateDir: dir,
		shardTr:  &http.Transport{},
		seedTr:   &http.Transport{},
	}
	var shardClient dispatch.ShardClient = dispatch.NewHTTPShardClient(st.shardTr)
	var seedRT http.RoundTripper = st.seedTr
	if traced {
		st.probe = &layerProbe{}
		shardClient = timedClient{shardClient, st.probe}
		seedRT = timedSeeds{seedRT, st.probe}
	}
	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

	var shards []string
	for i := 0; i < dispatchShards; i++ {
		ln, err := listen()
		if err != nil {
			st.close()
			return nil, err
		}
		w := dispatch.NewWorker(dispatch.WorkerConfig{Workers: 1, Client: &http.Client{Timeout: 30 * time.Second, Transport: seedRT}})
		h := w.Handler()
		if traced {
			h = workerTimer(h, st.probe)
		}
		st.serve(ln, h)
		shards = append(shards, ln.Addr().String())
	}
	ln, err := listen()
	if err != nil {
		st.close()
		return nil, err
	}
	seedURL := "http://" + ln.Addr().String() + "/seeds"
	st.d = dispatch.New(dispatch.Config{
		Shards:   shards,
		StateDir: dir,
		SeedURL:  seedURL,
		Workers:  1,
		Client:   shardClient,
	})
	st.serve(ln, st.d.Handler())

	for _, addr := range shards {
		for _, w := range spec.Worlds {
			unit := dispatch.WorkUnit{
				Campaign: "warm-up",
				Token:    1,
				SeedURL:  seedURL,
				Spec: dispatch.CellSpec{
					World: w, Fault: "kernel", SeverityName: "high", SeverityScale: 1,
					Detector: "none", Runs: 1, Seed: spec.Seed, TrainEnvs: spec.TrainEnvs,
					MapSeed: spec.MapSeed,
				},
			}
			if _, err := shardClient.Exec(ctx, addr, unit); err != nil {
				st.close()
				return nil, fmt.Errorf("warming shard %s on %s: %w", addr, w, err)
			}
		}
	}
	return st, nil
}

// workerTimer times each /exec a worker handles.
func workerTimer(h http.Handler, p *layerProbe) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/exec" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		p.add(&p.workerExec, time.Since(start))
	})
}

// close shuts every listener down and waits for the serving goroutines.
func (st *dispatchStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range st.servers {
		hs.Shutdown(ctx)
	}
	for range st.servers {
		<-st.served
	}
	st.shardTr.CloseIdleConnections()
	st.seedTr.CloseIdleConnections()
}

// report records the traced dispatch timings gathered since the probe's
// last reset, over wall time of dispatching, and the dispatcher's counters.
func (st *dispatchStack) report(b *bench, wall time.Duration) {
	p := st.probe
	p.mu.Lock()
	rtt, worker, fetches := p.rtt, p.workerExec, p.seedFetch
	p.mu.Unlock()
	busy := 0.0
	for _, v := range worker {
		busy += v
	}
	b.layer("dispatch.exec_rtt_ms_p50", median(rtt))
	b.layer("dispatch.worker_exec_ms_p50", median(worker))
	b.layer("dispatch.tax_ms_per_cell", mean(rtt)-mean(worker))
	b.layer("dispatch.seed_fetch_ms", mean(fetches))
	b.layer("dispatch.shard_idle_frac", 1-busy/(dispatchShards*ms(wall)))
	stat := st.d.Stat()
	b.layer("dispatch.retries", float64(stat.Retries))
	b.layer("dispatch.expired_leases", float64(stat.Expired))
	b.layer("dispatch.stale_drops", float64(stat.StaleDrops))
	b.layer("dispatch.local_runs", float64(stat.LocalRuns))
}

// runDispatchMemo is the dispatch-memo workload: each round is one
// Dispatcher.Run of the memo matrix over two loopback shards. The state
// directory is cleared between rounds, outside the clock, so every round
// leases, ships and persists every cell afresh.
func runDispatchMemo(ctx context.Context, b *bench) error {
	seeds, err := matrixSeeds(b.opt.seed, 1, func(s int64) matrix.Spec { return dispatchSpec(s, b.opt.tiny) })
	if err != nil {
		return err
	}
	spec := dispatchSpec(seeds[0], b.opt.tiny)
	var st *dispatchStack
	n := 0
	release, err := b.setup(func() (func(), error) {
		n++
		s, err := startDispatch(ctx, b.scratchPath(fmt.Sprintf("dispatch-%d", n)), spec, b.opt.trace)
		st = s
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
	if err != nil {
		return err
	}
	defer release()
	if st.probe != nil {
		st.probe.reset()
	}

	var first *matrix.Result
	var firstCSV string
	var repeatErr error
	total := len(matrix.Cells(spec)) * spec.Runs
	cells := len(matrix.Cells(spec))
	b.timed(func(i int) round {
		if err := os.RemoveAll(st.stateDir); err != nil {
			logf("clearing dispatch state: %v", err)
		}
		start := time.Now()
		res, err := st.d.Run(ctx, spec)
		wall := time.Since(start)
		if err != nil {
			logf("round %d: %v", i+1, err)
			b.ops(cells+total, cells+total)
			return round{wall: wall}
		}
		missions, flight, failed := countMissions(res)
		b.ops(cells+missions, failed)
		if first == nil {
			first, firstCSV = res, joinCSVs(res)
		} else if repeatErr == nil {
			repeatErr = checkBytesEqual(fmt.Sprintf("round %d CSVs", i+1), joinCSVs(res), firstCSV)
		}
		return round{wall: wall, missions: missions, flightS: flight}
	})
	b.check("rounds repeat byte-identically", repeatErr)
	if first == nil {
		return fmt.Errorf("no dispatch round completed")
	}
	checkMatrix(b, "dispatch-memo", first)

	refAssets, err := warmAssets(ctx, spec)
	if err != nil {
		return err
	}
	ref, err := matrix.RunOn(ctx, spec, refAssets)
	if err != nil {
		return err
	}
	b.check("dispatch-memo (c) dispatched CSVs equal in-process matrix.RunOn", checkBytesEqual("dispatched CSVs", firstCSV, joinCSVs(ref)))

	if !b.opt.trace {
		return nil
	}
	st.report(b, b.timedWall())
	if err := shadowAssets(b, spec.Worlds, spec.Seed, spec.Worlds); err != nil {
		return err
	}
	missions, err := cellMissions(ctx, ref, refAssets)
	if err != nil {
		return err
	}
	sr, err := shadowMissions(missions, nil, nil)
	b.check("shadow replay reproduces the published missions", err)
	if err == nil {
		sr.report(b, dispatchShards)
	}
	return nil
}
