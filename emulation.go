package mercury

import (
	"github.com/darklab/mercury/internal/webcluster"
	"github.com/darklab/mercury/internal/workload"
)

// Emulated evaluation substrate: the web-server cluster and workload
// generator of the paper's Section 5, exposed so downstream users can
// reproduce cluster-level thermal-management studies without a
// physical testbed.
type (
	// WebCluster is a discrete-time emulation of a web server cluster
	// behind the balancer: it serves arrivals, tracks per-server
	// utilizations for the thermal model, and counts drops.
	WebCluster = webcluster.Cluster
	// WebClusterConfig sets the request cost model.
	WebClusterConfig = webcluster.Config
	// WebClusterTick reports one emulated second of cluster activity.
	WebClusterTick = webcluster.Tick
	// Request is one client request of the web workload.
	Request = workload.Request
	// WebConfig shapes the diurnal synthetic trace.
	WebConfig = workload.WebConfig
	// WebGen draws the same trace incrementally, one window at a time.
	WebGen = workload.WebGen
)

// NewWebCluster builds an emulated web cluster over a balancer,
// registering every machine with weight 1.
func NewWebCluster(bal *Balancer, machines []string, cfg WebClusterConfig) (*WebCluster, error) {
	return webcluster.New(bal, machines, cfg)
}

// NewWebGen starts a reproducible diurnal request trace as a stream:
// each Next call returns the arrivals before its limit that no earlier
// call returned.
func NewWebGen(cfg WebConfig) *WebGen { return workload.NewWebGen(cfg) }
