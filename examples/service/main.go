// Service lifecycle: the deployment loop the paper's interactive
// setting implies — a model served over the /v1 HTTP API under request
// deadlines while a fine-tuned successor is hot-swapped in, with the
// registry persisted so a restart serves the same bits.
//
// It trains a character CNN, deploys it into a durable registry on the
// service's two-replica pool template, serves it over HTTP and the
// binary wire protocol simultaneously, drives concurrent
// deadline-bounded traffic through the typed client (retries on),
// swaps a fine-tuned v2 live mid-traffic with zero downtime, checks
// the two transports answer bit-identically, then simulates a restart:
// a fresh Service over the same store directory warm-boots v2 and
// answers bit-identically.
//
//	go run ./examples/service
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

func main() {
	// 1. Data and first model.
	fmt.Println("generating SDSS-like workload...")
	w := repro.GenerateSDSS(1500, 11)
	split := repro.SplitRandom(w.Items, 11)
	cfg := repro.DefaultConfig()
	cfg.Epochs = 2
	fmt.Printf("training ccnn v1 on %d statements...\n", len(split.Train))
	model, err := repro.Train("ccnn", repro.ErrorClassification, split.Train, cfg)
	if err != nil {
		panic(err)
	}

	// 2. A durable registry: artifacts and live markers land in
	// storeDir, so step 7 can warm-boot from it.
	storeDir, err := os.MkdirTemp("", "service-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(storeDir)
	store, err := repro.NewDirStore(storeDir)
	if err != nil {
		panic(err)
	}
	svc := repro.NewService(repro.ServiceOptions{
		Serve: repro.ServeOptions{Replicas: 2},
		Store: store,
	})
	defer svc.Close()
	if _, err := svc.WarmBoot(); err != nil { // empty store: flips ready
		panic(err)
	}
	info, err := svc.Swap("errors", model)
	if err != nil {
		panic(err)
	}
	fmt.Printf("deployed %s v%d (store: %s)\n", info.Name, info.Version, storeDir)

	// 3. Serve the /v1 API and build the typed client on it: 5ms
	// per-request deadlines, bounded retries.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := &http.Server{Handler: repro.NewServiceHandler(svc)}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := repro.NewClient("http://"+ln.Addr().String(), repro.ClientOptions{
		Timeout: 5 * time.Millisecond,
		Retries: 2,
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// The same service also goes up on the binary wire protocol: a
	// client picks it with a tcp:// (or unix://) URL and keeps the
	// exact same typed API and error semantics, minus the HTTP/JSON
	// cost on the predict hot path.
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	wsrv := repro.NewWireServer(svc, repro.WireServerOptions{})
	go wsrv.Serve(wln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		wsrv.Shutdown(ctx)
	}()
	cw, err := repro.NewClient("tcp://"+wln.Addr().String(), repro.ClientOptions{
		Timeout: 5 * time.Millisecond,
		Retries: 2,
	})
	if err != nil {
		panic(err)
	}
	defer cw.Close()

	// 4. Concurrent deadline-bounded traffic through the client.
	stmts := make([]string, 0, len(split.Test))
	for _, item := range split.Test {
		stmts = append(stmts, item.Statement)
	}
	var served, missed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Predict(context.Background(), "errors", stmts[rng.Intn(len(stmts))]); err != nil {
					missed.Add(1) // deadline expired
					continue
				}
				served.Add(1)
			}
		}(g)
	}

	// 5. Fine-tune and hot-swap under that live load. The deployed
	// snapshot is immune to FineTune mutating `model`, and Swap drains
	// v1's in-flight requests before closing it: zero downtime, zero
	// mixed-weight predictions.
	time.Sleep(150 * time.Millisecond)
	fmt.Println("fine-tuning on the validation split and swapping v2 live...")
	if _, err := repro.FineTune(model, split.Valid, cfg); err != nil {
		panic(err)
	}
	info, err = svc.Swap("errors", model)
	if err != nil {
		panic(err)
	}
	fmt.Printf("now serving %s v%d (of %d versions)\n", info.Name, info.LiveVersion, info.Versions)
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	// 6. Observability, client- and server-side.
	st, err := c.Stats(context.Background(), "errors")
	if err != nil {
		panic(err)
	}
	fmt.Printf("client: served=%d missed=%d\n", served.Load(), missed.Load())
	fmt.Printf("server: v%d stats: %s\n", st.Info.LiveVersion, st.Stats)

	// One registry behind both transports: the wire answer carries the
	// same provenance and bit-identical probabilities as the HTTP one.
	// Fresh clients with lazy deadlines: the load clients above run
	// tight 5ms budgets and may have tripped their breakers on a slow
	// box, which is their job — not this check's.
	ch2, err := repro.NewClient("http://"+ln.Addr().String(), repro.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		panic(err)
	}
	defer ch2.Close()
	cw2, err := repro.NewClient("tcp://"+wln.Addr().String(), repro.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		panic(err)
	}
	defer cw2.Close()
	httpPred, err := ch2.Predict(context.Background(), "errors", stmts[0])
	if err != nil {
		panic(err)
	}
	wirePred, err := cw2.Predict(context.Background(), "errors", stmts[0])
	if err != nil {
		panic(err)
	}
	same := wirePred.Version == httpPred.Version && len(wirePred.Probs) == len(httpPred.Probs)
	for i := range httpPred.Probs {
		same = same && wirePred.Probs[i] == httpPred.Probs[i]
	}
	fmt.Printf("wire vs http: both v%d, bit-identical predictions: %v\n", wirePred.Version, same)

	// 7. "Restart": a fresh Service over the same store directory
	// warm-boots v2 and predicts bit-identically — no retraining.
	probe := stmts[0]
	want, err := svc.Predict(context.Background(), "errors", probe)
	if err != nil {
		panic(err)
	}
	svc.Close()
	store2, err := repro.NewDirStore(storeDir)
	if err != nil {
		panic(err)
	}
	svc2 := repro.NewService(repro.ServiceOptions{
		Serve: repro.ServeOptions{Replicas: 2},
		Store: store2,
	})
	defer svc2.Close()
	rep, err := svc2.WarmBoot()
	if err != nil {
		panic(err)
	}
	fmt.Printf("restart: warm-booted %d model(s) from %s\n", len(rep.Deployed), storeDir)
	got, err := svc2.Predict(context.Background(), "errors", probe)
	if err != nil {
		panic(err)
	}
	identical := got.Version == want.Version && len(got.Probs) == len(want.Probs)
	for i := range want.Probs {
		identical = identical && got.Probs[i] == want.Probs[i]
	}
	fmt.Printf("restart serves v%d, bit-identical predictions: %v\n", got.Version, identical)
}
