package webcluster

import (
	"fmt"
	"time"

	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/workload"
)

// TwoTier composes a frontend web tier with a backend
// application/database tier, the multi-tier extension the paper's
// Section 7 calls for ("Freon needs to be extended to deal with
// multi-tier services"). Static requests complete in the frontend;
// every completed dynamic request issues one backend job through the
// backend tier's own balancer. Each tier keeps its own LVS instance,
// so a Freon per tier manages its machines independently — exactly how
// the base policy generalizes.
type TwoTier struct {
	front *Cluster
	back  *Cluster

	frontDropped uint64 // refused at the frontend
	backDropped  uint64 // dynamic requests whose backend job was refused
	backIssued   uint64
}

// The Section 7 extension's cost model. Each backend tier server's
// queue is bounded by QueueCap, as every cluster's is.
const (
	// FrontendDynamicCPU is the frontend share of a dynamic request
	// (parsing, templating).
	FrontendDynamicCPU = 5 * time.Millisecond
	// BackendCPU is the backend CPU work per dynamic request.
	BackendCPU = 20 * time.Millisecond
	// BackendDisk is the backend disk work per dynamic request.
	BackendDisk = 10 * time.Millisecond
)

// NewTwoTier builds both tiers. Machine names must be unique across
// tiers (they share one thermal model).
func NewTwoTier(frontBal, backBal *lvs.Balancer, frontMachines, backMachines []string) (*TwoTier, error) {
	seen := map[string]bool{}
	for _, m := range append(append([]string(nil), frontMachines...), backMachines...) {
		if seen[m] {
			return nil, fmt.Errorf("webcluster: machine %q appears in both tiers", m)
		}
		seen[m] = true
	}
	front, err := New(frontBal, frontMachines, Config{DynamicCPU: FrontendDynamicCPU})
	if err != nil {
		return nil, err
	}
	// Backend jobs travel as "static" requests whose cost model is the
	// backend work: CPU plus disk.
	back, err := New(backBal, backMachines, Config{
		StaticCPU:  BackendCPU,
		StaticDisk: BackendDisk,
		DynamicCPU: BackendCPU,
	})
	if err != nil {
		return nil, err
	}
	return &TwoTier{front: front, back: back}, nil
}

// TwoTierTick reports one emulated second across both tiers.
type TwoTierTick struct {
	Front Tick
	Back  Tick
	// BackendJobs is how many backend jobs the frontend issued.
	BackendJobs int
}

// TickSecond advances both tiers one second: the frontend serves the
// arrivals, then its completed dynamic requests become backend jobs
// spread across the same second.
func (t *TwoTier) TickSecond(arrivals []workload.Request) TwoTierTick {
	frontTick := t.front.TickSecond(arrivals)
	jobs := 0
	for _, st := range frontTick.PerServer {
		jobs += st.CompletedDynamic
	}
	backReqs := make([]workload.Request, jobs)
	for i := range backReqs {
		backReqs[i] = workload.Request{
			At: time.Duration(i) * time.Second / time.Duration(jobs),
		}
	}
	backTick := t.back.TickSecond(backReqs)

	t.frontDropped += uint64(frontTick.Dropped)
	t.backDropped += uint64(backTick.Dropped)
	t.backIssued += uint64(jobs)
	return TwoTierTick{Front: frontTick, Back: backTick, BackendJobs: jobs}
}

// Totals aggregates end-to-end accounting: a request counts as dropped
// if either tier refused it.
func (t *TwoTier) Totals() Totals {
	f := t.front.Totals()
	return Totals{
		Arrived:   f.Arrived,
		Completed: f.Completed - t.backDropped,
		Dropped:   f.Dropped + t.backDropped,
	}
}

// BackendIssued returns how many backend jobs the frontend has issued.
func (t *TwoTier) BackendIssued() uint64 { return t.backIssued }
