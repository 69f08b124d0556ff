package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/cluster"
)

// coordServer is the coordinator mode of cfdserve: a thin stateless HTTP
// front over a fleet of shard nodes. It holds no engine and no store — the
// shared /v1 handlers (api.go) serve from the cluster handle, which routes
// writes and scatter-gathers reads, so the same clients work against either
// mode. See the "cluster" section of ARCHITECTURE.md for the partitioning and
// consistency argument.
type coordServer struct {
	cl  *cluster.Cluster
	obs *obsStack
}

// The coordinator serves the shared routes only: no delta/stream reads (each
// shard commits on its own WAL, so there is no fleet-wide epoch to resume
// from; consume the shards' streams directly), and no remine (mining is a
// per-node operation).
func (s *coordServer) routes() []route { return api{coordBackend{s.cl}}.routes() }

func (s *coordServer) handler() http.Handler { return s.obs.mux(s.routes()) }

// coordBackend is the cluster handle as the handlers' backend: the fleet's
// reads, writes and two-phase rule swap are cluster.Cluster's own methods;
// only the two below need adapting.
type coordBackend struct{ *cluster.Cluster }

// Health is the aggregated fleet health. It never fails — a down shard
// degrades status instead, with the per-shard breakdown saying which and why
// — so orchestration probes can distinguish "coordinator dead" from
// "coordinator up, fleet degraded".
func (b coordBackend) Health(ctx context.Context) any { return b.Cluster.Health(ctx) }

// Rules costs a scatter whichever version the client holds: the fleet must
// be seen to agree before anything is answered.
func (b coordBackend) Rules(ctx context.Context, _ func(string) bool) (cluster.RulesDoc, error) {
	return b.Cluster.Rules(ctx)
}

// newCoordinator is the coordinator mode's startup: no engine, no store —
// it wires the cluster handle over the -shards fleet and its telemetry, and
// retries Init until the fleet answers or the deadline passes — shard nodes
// booting alongside the coordinator (docker-compose, TestRunCluster) need a
// grace window before all of them serve /v1/health.
func newCoordinator(ctx context.Context, cfg config) (*coordServer, error) {
	st := newObsStack(cfg.logger())
	cl, err := cluster.New(cluster.Config{
		Shards:   cfg.shardURLs,
		Key:      cfg.partitionBy,
		Timeout:  cfg.shardTimeout,
		Observer: newCoordObs(st.reg),
	})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(cfg.initWait)
	for {
		err = cl.Init(ctx)
		if err == nil {
			break
		}
		// Config-shaped rejections (mixed rule sets, a bad partition key) do
		// not heal by waiting; only unavailability is worth retrying.
		if !errors.Is(err, cluster.ErrUnavailable) || time.Now().After(deadline) {
			return nil, fmt.Errorf("forming the cluster: %w", err)
		}
		st.log.Info("waiting for shards", "error", err)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
	st.log.Info("cluster formed",
		"shards", cl.Shards(), "partition_key", strings.Join(cl.Key(), ","),
		"schema", len(cl.Schema()), "next_id", cl.NextID())
	return &coordServer{cl: cl, obs: st}, nil
}
