package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/wire"
	"repro/internal/workload"
)

// trainData is the fixed-seed training workload and its split.
type trainData struct {
	split workload.Split
}

func newTrainData(sessions int) *trainData {
	w := synth.NewSDSS(synth.SDSSConfig{Sessions: sessions, HitsPerSessionMax: 3, Seed: trainSeed}).Generate()
	return &trainData{split: workload.RandomSplit(w.Items, 0.1, 0.1, rand.New(rand.NewSource(trainSeed+7)))}
}

// statements returns every statement of the training workload, which
// the statement pool must not contain.
func (d *trainData) statements() map[string]bool {
	seen := map[string]bool{}
	for _, part := range [][]workload.Item{d.split.Train, d.split.Valid, d.split.Test} {
		for _, it := range part {
			seen[it.Statement] = true
		}
	}
	return seen
}

// modelTask is the task each benchmarked model is trained for.
var modelTask = map[string]core.Task{
	"wcnn":  core.CPUTimePrediction,
	"ccnn":  core.ErrorClassification,
	"clstm": core.ErrorClassification,
}

// rig is one deployed serving stack: a service with the workload's
// model live, a wire server on unix (two sockets, for the cluster
// client) and tcp listeners, an HTTP server, and for a WAL workload
// the ingest log, store and online learner. Client and server share
// the process, as in servebench; the listeners are real sockets.
type rig struct {
	dir   string
	name  string // registry name of the deployed model
	svc   *service.Service
	store *service.MemStore
	wal   *ingest.WAL
	learn *online.Pipeline

	wireSrv *wire.Server
	httpSrv *http.Server
	served  chan error // one result per Serve goroutine
	serving int        // Serve goroutines started

	unixURL, unix2URL, tcpURL, httpURL string
}

// setupTimes splits one set-up into the phases that have a layer
// metric of their own.
type setupTimes struct {
	total, synth, train time.Duration
}

// setUp runs the whole set-up for one workload — training data,
// training, deploy, listeners, a client, up to and including one
// request — and reports how long it took. dir is a scratch directory
// under bench/out. An untraced train run has no serving stack: its
// set-up is the training data alone. A traced run trains all three
// benchmarked models, for the layer measurements, and always deploys
// one (ccnn when the workload itself serves nothing).
func setUp(spec workloadSpec, sessions int, dir string, traced bool) (*rig, *trainData, map[string]*core.Model, setupTimes, error) {
	var times setupTimes
	start := time.Now()
	data := newTrainData(sessions)
	times.synth = time.Since(start)
	names, deployed := []string{spec.model}, spec.model
	if traced {
		names = []string{"wcnn", "ccnn", "clstm"}
		if deployed == "" {
			deployed = "ccnn"
		}
	}
	models := map[string]*core.Model{}
	for _, name := range names {
		if name == "" {
			continue
		}
		m, err := core.Train(name, modelTask[name], data.split.Train, trainConfig(procs))
		if err != nil {
			return nil, nil, nil, times, fmt.Errorf("train %s: %w", name, err)
		}
		models[name] = m
	}
	times.train = time.Since(start) - times.synth
	if deployed == "" {
		times.total = time.Since(start)
		return nil, data, models, times, nil
	}
	r, err := deploy(deployed, spec.wal, models[deployed], dir)
	if err != nil {
		return nil, nil, nil, times, err
	}
	url := r.unixURL
	if spec.http {
		url = r.httpURL
	}
	c, err := client.New(url, client.Options{})
	if err == nil {
		_, err = c.Predict(context.Background(), r.name, data.split.Test[0].Statement)
		c.Close()
	}
	if err != nil {
		r.close()
		return nil, nil, nil, times, fmt.Errorf("set-up request: %w", err)
	}
	times.total = time.Since(start)
	return r, data, models, times, nil
}

// deploy builds the serving stack around a trained model, with an
// ingest WAL and an online learner when wal is set.
func deploy(name string, wal bool, m *core.Model, dir string) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &rig{dir: dir, name: name, served: make(chan error, 4)}
	opts := service.Options{Serve: serve.Options{Replicas: procs}}
	if wal {
		log, err := ingest.Open(filepath.Join(dir, "wal"), ingest.Options{})
		if err != nil {
			return nil, err
		}
		r.wal, r.store = log, service.NewMemStore()
		opts.Store, opts.Ingest, opts.IngestEvery = r.store, log, 1
	}
	r.svc = service.New(opts)
	if _, err := r.svc.Swap(r.name, m); err != nil {
		r.close()
		return nil, fmt.Errorf("deploy %s: %w", r.name, err)
	}
	if wal {
		learn, err := online.Start(online.Options{
			Service: r.svc, Store: r.store, Dir: r.wal.Dir(), Models: []string{r.name},
			Window: onlineWindow, Margin: onlineMargin, Config: trainConfig(1),
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.learn = learn
	}

	r.wireSrv = wire.NewServer(r.svc, wire.ServerOptions{})
	listen := func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		r.serving++
		go func() { r.served <- r.wireSrv.Serve(ln) }()
		return ln, nil
	}
	// Relative socket paths: the checkout's absolute path may exceed
	// the 108 bytes a unix socket address holds.
	sock, sock2 := filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock")
	for _, s := range []string{sock, sock2} {
		if _, err := listen("unix", s); err != nil {
			r.close()
			return nil, err
		}
	}
	r.unixURL, r.unix2URL = "unix:"+sock, "unix:"+sock2
	tln, err := listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.tcpURL = "tcp://" + tln.Addr().String()

	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.httpSrv = &http.Server{Handler: service.NewHandler(r.svc)}
	r.serving++
	go func() { r.served <- r.httpSrv.Serve(hln) }()
	r.httpURL = "http://" + hln.Addr().String()
	return r, nil
}

// close stops every goroutine the rig started, waits for the servers
// to return, and removes its scratch directory.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if r.httpSrv != nil {
		r.httpSrv.Shutdown(ctx)
	}
	if r.wireSrv != nil {
		r.wireSrv.Shutdown(ctx)
	}
	for ; r.serving > 0; r.serving-- {
		<-r.served
	}
	if r.learn != nil {
		r.learn.Close()
	}
	if r.svc != nil {
		r.svc.Close()
	}
	if r.wal != nil {
		r.wal.Close()
	}
	os.RemoveAll(r.dir)
}

// reference returns a private replica of the registry's snapshot of
// one version, for the answer checker: the registry's own copy is
// shared with the serving pool and must not be called.
func (r *rig) reference(version int) (*core.Model, error) {
	m, err := r.svc.VersionModel(r.name, version)
	if err != nil {
		return nil, err
	}
	return m.Replicate(), nil
}
