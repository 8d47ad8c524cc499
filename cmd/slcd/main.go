// Command slcd is the build-farm side of the toolchain: one binary serving
// three roles, selected by -mode.
//
//	slcd -mode serve  (default): the compile daemon. Accepts concurrent build
//	    requests over HTTP (POST /build), dedupes identical in-flight stage
//	    work across requests through the single-flight layer, and shares one
//	    build cache — optionally backed by a sharded remote tier — across
//	    every request it serves.
//	slcd -mode shard: one remote cache shard — an LRU-capped, disk-backed
//	    entry store speaking the cache's HTTP protocol (GET/PUT/DELETE
//	    /entry/<id>, GET /statz).
//	slcd -mode client: a build client. Generates or reads sources, posts N
//	    concurrent identical requests, verifies the responses agree
//	    byte-for-byte, and writes the listing and counters.
//
// A two-terminal quickstart lives in the repository README; the service-mode
// design notes live in DESIGN.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"outliner/internal/appgen"
	"outliner/internal/cache"
	"outliner/internal/pipeline"
	"outliner/internal/slcd"
)

func main() {
	build := buildFlags(flag.CommandLine)
	var (
		mode = flag.String("mode", "serve", "role: serve (compile daemon) | shard (remote cache shard) | client (post build requests)")
		addr = flag.String("addr", "127.0.0.1:9470", "listen address (serve and shard modes)")

		// serve
		shards    = flag.String("shards", "", "comma-separated remote cache shard base URLs, e.g. http://127.0.0.1:9471,http://127.0.0.1:9472")
		maxBuilds = flag.Int("max-builds", 4, "concurrently executing build requests; further requests queue")
		maxQueue  = flag.Int("max-queue", 32, "requests waiting for a build slot before the daemon sheds load with 503 (negative = unbounded)")
		deadline  = flag.Duration("deadline", 0, "daemon-side cap on each build's wall-clock time (0 = none); the smaller of this and the request's timeout_ms wins")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT: how long in-flight builds may finish before stragglers are cancelled")
		remoteTO  = flag.Duration("remote-timeout", 0, "per-operation remote shard timeout (0 = cache package default)")
		breakThr  = flag.Int("breaker-threshold", 0, "consecutive shard failures that open its circuit breaker (0 or less = default)")

		// shard
		shardDir = flag.String("shard-dir", "", "shard entry directory (shard mode; required)")
		shardMax = flag.Int64("shard-max-bytes", 256<<20, "shard size cap in bytes; least-recently-used entries are evicted")

		// client
		server    = flag.String("server", "http://127.0.0.1:9470", "daemon base URL (client mode)")
		requests  = flag.Int("requests", 1, "concurrent identical build requests to post; responses must agree byte-for-byte")
		genMods   = flag.Int("gen-modules", 0, "generate a deterministic app with this many modules instead of reading source files")
		outFile   = flag.String("o", "", "client: write the agreed image listing to this file")
		counters  = flag.String("counters", "", "client: write the first response's counters as JSON to this file")
		timeoutMS = flag.Int64("timeout-ms", 0, "client request knob: per-request build deadline in milliseconds (0 = none)")
	)
	flag.Parse()

	cfg, err := build.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "slcd:", err)
		os.Exit(1)
	}
	switch *mode {
	case "serve":
		opts := slcd.Options{
			CacheDir: cfg.CacheDir, Parallelism: cfg.Parallelism, MaxBuilds: *maxBuilds, MaxQueue: *maxQueue,
			Deadline: *deadline, RemoteTimeout: *remoteTO, BreakerThreshold: *breakThr,
		}
		if *shards != "" {
			opts.ShardURLs = strings.Split(*shards, ",")
		}
		err = runServe(*addr, *drainTO, opts)
	case "shard":
		err = runShard(*addr, *shardDir, *shardMax)
	case "client":
		err = runClient(clientOpts{
			server: *server, requests: *requests, genModules: *genMods, build: cfg,
			timeoutMS: *timeoutMS, outFile: *outFile, countersFile: *counters, files: flag.Args(),
		})
	default:
		err = fmt.Errorf("unknown -mode %q (serve | shard | client)", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "slcd:", err)
		os.Exit(1)
	}
}

// runServe runs the compile daemon until SIGTERM/SIGINT, then executes the
// graceful-drain protocol: flip /healthz to draining, refuse new builds with
// 503 + Retry-After, let in-flight builds finish up to -drain-timeout, cancel
// stragglers, and only then close the listener.
func runServe(addr string, drainTimeout time.Duration, opts slcd.Options) error {
	srv := slcd.NewServer(opts)
	defer srv.Close()
	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "slcd: compile daemon on %s (cache=%q, shards=%d, max-builds=%d, max-queue=%d, deadline=%s)\n",
		addr, opts.CacheDir, len(opts.ShardURLs), opts.MaxBuilds, opts.MaxQueue, opts.Deadline)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "slcd: %v received, draining (timeout %s)\n", sig, drainTimeout)
		if graceful := srv.Drain(drainTimeout); graceful {
			fmt.Fprintln(os.Stderr, "slcd: drain complete, all builds finished")
		} else {
			fmt.Fprintln(os.Stderr, "slcd: drain deadline hit, straggler builds cancelled")
		}
		// Give in-flight response writes a beat to flush, then close.
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()
	err := httpSrv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		<-drained
		return nil
	}
	return err
}

func runShard(addr, dir string, maxBytes int64) error {
	if dir == "" {
		return fmt.Errorf("shard mode requires -shard-dir")
	}
	store, err := cache.OpenShard(dir, maxBytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "slcd: cache shard on %s (dir=%s, cap=%d bytes, %d entries adopted)\n",
		addr, dir, maxBytes, store.Len())
	return http.ListenAndServe(addr, cache.NewShardServer(store))
}

type clientOpts struct {
	server       string
	requests     int
	genModules   int
	build        pipeline.Config
	timeoutMS    int64
	outFile      string
	countersFile string
	files        []string
}

// runClient posts opts.requests concurrent identical build requests and
// verifies every response succeeded with the same listing — the client-side
// half of the determinism contract the race and soak tests assert in-process.
func runClient(opts clientOpts) error {
	req, err := buildRequest(opts)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if opts.requests < 1 {
		opts.requests = 1
	}
	resps := make([]*slcd.BuildResponse, opts.requests)
	errs := make([]error, opts.requests)
	var wg sync.WaitGroup
	for i := 0; i < opts.requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = post(opts.server, payload)
		}(i)
	}
	wg.Wait()
	for i := 0; i < opts.requests; i++ {
		if errs[i] != nil {
			return fmt.Errorf("request %d: %w", i, errs[i])
		}
		if !resps[i].OK {
			return fmt.Errorf("request %d failed (%s): %s", i, resps[i].ErrorClass, resps[i].Error)
		}
		if resps[i].Listing != resps[0].Listing {
			return fmt.Errorf("request %d listing differs from request 0 — concurrent identical requests must agree byte-for-byte", i)
		}
	}
	first := resps[0]
	fmt.Printf("slcd client: %d request(s) ok, code %d bytes, total %d bytes\n",
		opts.requests, first.CodeSize, first.TotalSize)
	if opts.outFile != "" {
		if err := os.WriteFile(opts.outFile, []byte(first.Listing), 0o644); err != nil {
			return err
		}
	}
	if opts.countersFile != "" {
		data, err := json.MarshalIndent(first.Counters, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.countersFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// buildRequest assembles the request from -gen-modules or the .sl file args
// (each file its own module, like slc).
func buildRequest(opts clientOpts) (*slcd.BuildRequest, error) {
	cfg := slcd.DefaultConfig()
	cfg.OutlineRounds = opts.build.OutlineRounds
	cfg.Verify = opts.build.Verify
	cfg.Layout = opts.build.Layout
	cfg.TimeoutMS = opts.timeoutMS
	if p := opts.build.Profile; p != nil {
		// The profile ships inside the request in its canonical encoding —
		// the daemon has no view of the client's filesystem.
		cfg.Profile = p.Encode()
	}
	req := &slcd.BuildRequest{Config: cfg}
	switch {
	case opts.genModules > 0:
		corpus := appgen.UberRider
		scale := appgen.ScaleForModules(corpus, opts.genModules)
		for _, m := range appgen.Generate(corpus, scale) {
			req.Modules = append(req.Modules, slcd.ModuleSource{Name: m.Name, Files: m.Files})
		}
	case len(opts.files) > 0:
		for _, path := range opts.files {
			text, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			name := strings.TrimSuffix(filepath.Base(path), ".sl")
			req.Modules = append(req.Modules, slcd.ModuleSource{
				Name:  name,
				Files: map[string]string{filepath.Base(path): string(text)},
			})
		}
	default:
		return nil, fmt.Errorf("client mode needs .sl file arguments or -gen-modules N")
	}
	return req, nil
}

// buildFlags registers slcd's rows of the build-flag table: -cache-dir and -j
// for the daemon, and the request knobs a client copies into DefaultConfig,
// defaulting to its values.
func buildFlags(fs *flag.FlagSet) *pipeline.Flags {
	d := slcd.DefaultConfig()
	base := pipeline.Config{OutlineRounds: d.OutlineRounds, Verify: d.Verify, Layout: d.Layout}
	return pipeline.NewFlags(fs, base, "cache-dir", "j", "rounds", "verify", "layout", "profile-in")
}

func post(server string, payload []byte) (*slcd.BuildResponse, error) {
	resp, err := http.Post(server+"/build", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var msg bytes.Buffer
	msg.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		// A draining or overloaded daemon answers 503 with a structured
		// BuildResponse; surface its error class so retry scripts can branch.
		var out slcd.BuildResponse
		if jerr := json.Unmarshal(msg.Bytes(), &out); jerr == nil && out.ErrorClass != "" {
			return &out, nil
		}
		return nil, fmt.Errorf("daemon returned %d: %s", resp.StatusCode, strings.TrimSpace(msg.String()))
	}
	var out slcd.BuildResponse
	if err := json.Unmarshal(msg.Bytes(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}
