// Command pfcimd is the mining service daemon: a long-lived HTTP/JSON
// process that amortizes dataset loading across requests, runs MPFCI jobs
// asynchronously on a bounded worker pool, and serves repeated parameter-
// sweep points from a result cache (sound because mining is deterministic
// per (dataset, canonical options) — DESIGN.md §9).
//
// Usage:
//
//	pfcimd -addr :8080 -workers 4 -cache-size 256 -max-job-time 5m
//
// Endpoints:
//
//	POST   /v1/datasets       register a dataset (text format body, or
//	                          {"path": …} JSON with -allow-path-load)
//	GET    /v1/datasets       list registered datasets
//	GET    /v1/datasets/{id}  one dataset's stats
//	POST   /v1/jobs           submit a mining job {dataset, options, timeout_ms}
//	POST   /v1/sweeps         submit a parameter sweep {dataset, options,
//	                          points: [{min_sup, pfct, epsilon, delta}, …]};
//	                          one enumeration per min_sup group, per-point
//	                          results shared with the single-job cache
//	GET    /v1/jobs           list jobs (sweeps included)
//	GET    /v1/jobs/{id}      job status + result (wall_ms, queue_wait_ms)
//	GET    /v1/jobs/{id}/trace  finished job's phase profile (per-phase and
//	                          per-depth wall time, per-worker busy time)
//	DELETE /v1/jobs/{id}      cancel a job
//	GET    /healthz           liveness + load snapshot
//	GET    /metrics           daemon counters — Prometheus text exposition
//	                          with Accept: text/plain, expvar-style JSON
//	                          otherwise
//	/debug/pprof/             net/http/pprof (only with -pprof)
//
// Distributed mining (README.md "Distributed quickstart"):
//
//	pfcimd -role=worker -addr :9101                      shard worker: holds
//	                          range slices of registered datasets and
//	                          answers batched per-shard tail-PMF RPCs
//	                          (POST /shard/v1/datasets, POST
//	                          /shard/v2/eval, GET /healthz)
//	pfcimd -role=coordinator -shard-workers :9101,:9102 -shards 4
//	                          coordinator: the daemon above, with datasets
//	                          range-partitioned onto the workers at
//	                          registration and sharded jobs evaluated over
//	                          RPC
//	pfcimd -shards 4          single-process sharded mode: the same shard-
//	                          composable arithmetic, evaluated in-memory
//
// See README.md "Serving" for a curl walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/probdata/pfcim/internal/service"
	"github.com/probdata/pfcim/internal/shard"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr          = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers       = flag.Int("workers", 0, "mining worker pool size (0 = GOMAXPROCS)")
		queueDepth    = flag.Int("queue-depth", 64, "maximum queued jobs before submissions are shed with 429")
		cacheSize     = flag.Int("cache-size", 128, "result cache entries (-1 disables caching)")
		maxJobTime    = flag.Duration("max-job-time", 0, "per-job wall-time cap (0 = unlimited)")
		maxUpload     = flag.Int64("max-upload-bytes", 256<<20, "dataset upload size limit")
		allowPathLoad = flag.Bool("allow-path-load", false, "allow clients to register datasets from server-local paths (trusted setups only)")
		preload       = flag.String("preload", "", "comma-separated dataset files to register at startup")
		grace         = flag.Duration("shutdown-grace", 30*time.Second, "how long shutdown waits for running jobs before canceling them")
		logLevel      = flag.String("log-level", "info", "log level: debug, info, warn, error")
		slowJob       = flag.Duration("slow-job-threshold", 0, "log a warning for jobs slower than this (0 disables)")
		noJobTrace    = flag.Bool("no-job-trace", false, "disable the per-job phase tracer (GET /v1/jobs/{id}/trace returns 404)")
		enablePprof   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		role          = flag.String("role", "", `process role: "" (standalone), "coordinator", or "worker"`)
		shardWorkers  = flag.String("shard-workers", "", "comma-separated shard worker addresses (coordinator role)")
		shards        = flag.Int("shards", 0, "default shard count for jobs that leave options.shards unset (≥ 2 partitions tail computation)")
		shardTimeout  = flag.Duration("shard-rpc-timeout", 5*time.Second, "per-attempt shard RPC timeout")
		shardHealth   = flag.Duration("shard-health-interval", 10*time.Second, "shard worker health probe period")
		storeDir      = flag.String("store-dir", "", "durable store directory: lineages and results persist across restarts (empty = in-memory only)")
		quota         = flag.Float64("quota", 0, "per-tenant job/sweep submissions per second, shed with 429 beyond it (0 = unlimited)")
		quotaBurst    = flag.Int("quota-burst", 0, "per-tenant token-bucket burst behind -quota (0 derives one second's worth)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "pfcimd: bad -log-level %q: %v\n", *logLevel, err)
		return 2
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var workerAddrs []string
	for _, a := range strings.Split(*shardWorkers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			workerAddrs = append(workerAddrs, a)
		}
	}
	switch *role {
	case "", "coordinator":
		if *role == "coordinator" && len(workerAddrs) == 0 {
			fmt.Fprintln(os.Stderr, "pfcimd: -role=coordinator requires -shard-workers")
			return 2
		}
	case "worker":
		return runWorker(*addr, logger, *grace)
	default:
		fmt.Fprintf(os.Stderr, "pfcimd: bad -role %q (want \"\", coordinator, or worker)\n", *role)
		return 2
	}

	srv, err := service.New(service.Config{
		Workers:             *workers,
		QueueDepth:          *queueDepth,
		CacheSize:           *cacheSize,
		MaxJobTime:          *maxJobTime,
		MaxUploadBytes:      *maxUpload,
		AllowPathLoad:       *allowPathLoad,
		SlowJobThreshold:    *slowJob,
		DisableJobTracing:   *noJobTrace,
		EnablePprof:         *enablePprof,
		Shards:              *shards,
		ShardWorkers:        workerAddrs,
		ShardRPCTimeout:     *shardTimeout,
		ShardHealthInterval: *shardHealth,
		StoreDir:            *storeDir,
		QuotaRate:           *quota,
		QuotaBurst:          *quotaBurst,
		Logger:              logger,
	})
	if err != nil {
		logger.Error("daemon init failed", "error", err)
		return 1
	}

	for _, path := range strings.Split(*preload, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		ds, err := srv.PreloadPath(path)
		if err != nil {
			logger.Error("preload failed", "path", path, "error", err)
			return 1
		}
		logger.Info("dataset preloaded", "path", path, "dataset", ds.ID,
			"transactions", ds.NumTransactions)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		return 1
	}
	logger.Info("pfcimd listening", "addr", ln.Addr().String(),
		"workers", *workers, "cache_size", *cacheSize)

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		logger.Error("server failed", "error", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain the pool —
	// running jobs finish (up to the grace period), queued jobs cancel.
	logger.Info("shutdown signal received, draining", "grace", (*grace).String())
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(graceCtx); err != nil {
		logger.Warn("http shutdown incomplete", "error", err)
	}
	if err := srv.Drain(graceCtx); err != nil {
		logger.Warn("job drain incomplete, running jobs were canceled", "error", err)
	} else {
		logger.Info("drained cleanly")
	}
	return 0
}

// runWorker serves the shard worker protocol: it holds range slices of the
// datasets a coordinator places on it and answers per-shard tail-PMF RPCs.
// Workers keep no job state, so shutdown only waits for in-flight
// requests.
func runWorker(addr string, logger *slog.Logger, grace time.Duration) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Error("listen failed", "addr", addr, "error", err)
		return 1
	}
	logger.Info("pfcimd listening", "addr", ln.Addr().String(), "role", "worker")

	hs := &http.Server{Handler: shard.NewWorker(logger)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		logger.Error("server failed", "error", err)
		return 1
	case <-ctx.Done():
	}
	logger.Info("shutdown signal received", "grace", grace.String())
	graceCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(graceCtx); err != nil {
		logger.Warn("http shutdown incomplete", "error", err)
	}
	return 0
}
