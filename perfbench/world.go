package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"semandaq/internal/engine"
	"semandaq/internal/server"
	"semandaq/internal/wal"
)

// world is one instance of the service under test, hosted in this
// process on loopback listeners. close releases all of it.
type world struct {
	w   workload
	c   closers
	url string // the public endpoint: single server or coordinator
	// urls are every listener's base URL, public endpoint first.
	urls []string
	hc   *http.Client // control client for set-up and checks

	eng     *engine.Engine // plain and durable
	mgr     *wal.Manager   // durable
	dataDir string         // durable

	workers    []*engine.Engine // cluster
	workerURLs []string
	shards     []shardClient
	tailBase   int // cluster: the tail worker's cust slice size at registration
}

func (wd *world) close() { wd.c.closeAll() }

// buildWorld assembles the service for w. With rec non-nil every
// program handler, the journal and each worker client are wrapped so
// rec can time them.
func buildWorld(w workload, tmpRoot string, rec *recorder) (*world, error) {
	wd := &world{w: w}
	if err := wd.build(tmpRoot, rec); err != nil {
		wd.close()
		return nil, err
	}
	return wd, nil
}

func wrap(rec *recorder, h http.Handler, lane, parent string) http.Handler {
	if rec == nil {
		return h
	}
	return tracedHandler{rec: rec, lane: lane, parent: parent, next: h}
}

func (wd *world) build(tmpRoot string, rec *recorder) error {
	wd.hc = newHTTPClient(&wd.c)
	switch wd.w.mode {
	case modePlain, modeDurable:
		wd.eng = engine.New(engine.Options{})
		wd.c.push(wd.eng.Close)
		if wd.w.mode == modeDurable {
			dir, err := makeTempDir(&wd.c, tmpRoot, "data-")
			if err != nil {
				return err
			}
			wd.dataDir = dir
			if wd.mgr, err = wal.OpenManager(dir, wal.SyncAlways); err != nil {
				return fmt.Errorf("opening WAL: %w", err)
			}
			mgr := wd.mgr
			// Pushed after eng.Close, so it runs first: the drops the
			// engine journals while closing must not reach a closed log.
			wd.c.push(func() { wd.eng.SetJournal(nil); mgr.Close() })
			// A fresh data dir recovers nothing; run it anyway, as the
			// daemon does, before attaching the journal.
			if _, _, err := mgr.Recover(wd.eng); err != nil {
				return fmt.Errorf("recovering empty data dir: %w", err)
			}
			var journal engine.Journal = mgr
			if rec != nil {
				journal = tracedJournal{rec: rec, mgr: mgr}
			}
			wd.eng.SetJournal(journal)
		}
		url, err := serve(&wd.c, wrap(rec, server.New(wd.eng), laneFront, laneClient))
		if err != nil {
			return err
		}
		wd.url, wd.urls = url, []string{url}
	case modeCluster:
		clients := make([]engine.ShardClient, wd.w.workers)
		for i := range clients {
			eng := engine.New(engine.Options{})
			wd.c.push(eng.Close)
			url, err := serve(&wd.c, wrap(rec, server.New(eng), laneWorker(i), laneFanout(i)))
			if err != nil {
				return err
			}
			cl := server.NewShardClient(url, 5*time.Minute)
			cl.SetRetryPolicy(server.DefaultRetryPolicy())
			var sc shardClient = cl
			if rec != nil {
				sc = tracedShard{rec: rec, w: i, inner: cl}
			}
			clients[i] = sc
			wd.workers = append(wd.workers, eng)
			wd.workerURLs = append(wd.workerURLs, url)
			wd.shards = append(wd.shards, sc)
		}
		// The worker clients share http.DefaultTransport; drop its
		// keep-alive connections to the workers once they are gone.
		wd.c.push(http.DefaultTransport.(*http.Transport).CloseIdleConnections)
		coord, err := engine.NewCoordinator(clients)
		if err != nil {
			return err
		}
		url, err := serve(&wd.c, wrap(rec, server.NewCoordinator(coord), laneFront, laneClient))
		if err != nil {
			return err
		}
		wd.url = url
		wd.urls = append([]string{url}, wd.workerURLs...)
	}
	return nil
}

// load registers the datasets through the public API and installs
// their constraints, then (durable) checkpoints once, as the daemon's
// first checkpoint after preload would.
func (wd *world) load(ctx context.Context, in *inputs) error {
	for _, d := range []*dataset{in.cust, in.emp} {
		if d == nil {
			continue
		}
		if err := registerDataset(ctx, wd.hc, wd.url, d); err != nil {
			return err
		}
	}
	if wd.mgr != nil {
		if err := wd.mgr.Checkpoint(wd.eng); err != nil {
			return fmt.Errorf("checkpoint after preload: %w", err)
		}
	}
	return nil
}

func registerDataset(ctx context.Context, hc *http.Client, url string, d *dataset) error {
	if err := call(ctx, hc, "POST", url+"/v1/datasets", d.registerBody(), nil); err != nil {
		return err
	}
	if d.cfds != "" {
		if err := call(ctx, hc, "POST", url+"/v1/constraints", map[string]string{"dataset": d.name, "cfds": d.cfds}, nil); err != nil {
			return err
		}
	}
	if d.dcs != "" {
		if err := call(ctx, hc, "POST", url+"/v1/dcs", map[string]string{"dataset": d.name, "dcs": d.dcs}, nil); err != nil {
			return err
		}
	}
	return nil
}

// request is one op as sent on the wire.
type request struct {
	method, url string
	body        []byte
}

var (
	detectBody   = []byte(`{"dataset":"cust"}`)
	dcDetectBody = []byte(`{"dataset":"emp"}`)
	discoverBody = []byte(fmt.Sprintf(`{"dataset":"cust","min_support":%d,"max_lhs":%d}`, discoverMinSupport, discoverMaxLHS))
)

// request builds the wire form of op p, the seq-th op of client in the
// window tagged tag.
func (wd *world) request(p plannedOp, tag string, client, seq int) request {
	switch p.kind {
	case opDetect:
		return request{"POST", wd.url + "/v1/detect", detectBody}
	case opViolations:
		return request{"GET", wd.url + "/v1/datasets/cust/violations", nil}
	case opDCDetect:
		return request{"POST", wd.url + "/v1/dc/detect", dcDetectBody}
	case opDiscover:
		return request{"POST", wd.url + "/v1/discover", discoverBody}
	default:
		row := appendRow(tag, client, seq, p.dirty)
		body := fmt.Sprintf(`{"dataset":"cust","tuples":[["%s","%s","%s","%s","%s","%s","%s"]]}`,
			row[0], row[1], row[2], row[3], row[4], row[5], row[6])
		return request{"POST", wd.url + "/v1/repair/incremental", []byte(body)}
	}
}

// datasetInfo is the part of GET /v1/datasets/{name} the benchmark reads.
type datasetInfo struct {
	Tuples     int `json:"tuples"`
	IndexCache struct {
		Hits     uint64 `json:"hits"`
		Misses   uint64 `json:"misses"`
		Refines  uint64 `json:"refines"`
		Advances uint64 `json:"advances"`
		Patches  uint64 `json:"patches"`
	} `json:"index_cache"`
	IndexResidentBytes int64 `json:"index_resident_bytes"`
}

// cacheInfo sums the cust index-cache counters over every engine that
// holds cust: the single server, or each worker.
func (wd *world) cacheInfo(ctx context.Context) (datasetInfo, error) {
	urls := []string{wd.url}
	if wd.w.mode == modeCluster {
		urls = wd.workerURLs
	}
	var sum datasetInfo
	for _, u := range urls {
		var d datasetInfo
		if err := call(ctx, wd.hc, "GET", u+"/v1/datasets/cust", nil, &d); err != nil {
			return sum, err
		}
		sum.Tuples += d.Tuples
		sum.IndexCache.Hits += d.IndexCache.Hits
		sum.IndexCache.Misses += d.IndexCache.Misses
		sum.IndexCache.Refines += d.IndexCache.Refines
		sum.IndexCache.Advances += d.IndexCache.Advances
		sum.IndexCache.Patches += d.IndexCache.Patches
		sum.IndexResidentBytes += d.IndexResidentBytes
	}
	return sum, nil
}
