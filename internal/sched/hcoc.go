package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/plan"
)

// HCOC is the Hybrid Cloud Optimized Cost scheduler of Bittencourt &
// Madeira (the paper's ref. [17]): the workflow initially runs entirely on
// the user's own private cloud (prepaid VMs, zero marginal cost), and
// while the makespan misses the deadline, path clusters (from the Path
// Clustering Heuristic HCOC builds on, ref. [18]) are moved one by one
// onto rented public-cloud VMs — paying as little as possible to get
// under the deadline.
type HCOC struct {
	// PrivateVMs is the size of the private pool; PrivateType its machine
	// flavour.
	PrivateVMs  int
	PrivateType cloud.InstanceType
	// Deadline is the target makespan in seconds.
	Deadline float64
	// PublicType is the instance type rented from the public cloud.
	PublicType cloud.InstanceType
}

// NewHCOC returns an HCOC scheduler with a private pool of k small VMs and
// public rentals of the given type. It panics on a non-positive pool or
// deadline.
func NewHCOC(k int, deadline float64, publicType cloud.InstanceType) HCOC {
	if k <= 0 {
		panic(fmt.Sprintf("sched: HCOC private pool %d", k))
	}
	if deadline <= 0 {
		panic(fmt.Sprintf("sched: HCOC deadline %v", deadline))
	}
	return HCOC{
		PrivateVMs:  k,
		PrivateType: cloud.Small,
		Deadline:    deadline,
		PublicType:  publicType,
	}
}

// ErrDeadlineUnreachable reports that no configuration met the deadline;
// the returned schedule is the fastest found.
var ErrDeadlineUnreachable = fmt.Errorf("sched: deadline unreachable")

// Schedule maps every task onto the private pool or rented public VMs.
// When even the fully offloaded configuration misses the deadline, the
// fastest schedule found is returned together with
// ErrDeadlineUnreachable.
func (h HCOC) Schedule(wf *dag.Workflow, opts Options) (*plan.Schedule, error) {
	opts.fill()
	if err := wf.Freeze(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	clusters := pathClusters(wf, opts.Platform, h.PrivateType)
	rp, err := plan.NewReplayer(wf, opts.Platform, opts.Region, opts.Market)
	if err != nil {
		return nil, err
	}

	// clusterVM[c] = -1 while cluster c sits on the private pool, else the
	// index of its public VM.
	clusterVM := make([]int, len(clusters))
	for i := range clusterVM {
		clusterVM[i] = -1
	}

	build := func() (plan.Assignment, error) {
		a := plan.Assignment{}
		// Private pool first.
		for i := 0; i < h.PrivateVMs; i++ {
			a.Types = append(a.Types, h.PrivateType)
			a.Queues = append(a.Queues, nil)
			a.Prepaid = append(a.Prepaid, true)
		}
		// Distribute private clusters over the pool, least-loaded first
		// (by accumulated work), in cluster priority order.
		load := make([]float64, h.PrivateVMs)
		for c, cluster := range clusters {
			if clusterVM[c] >= 0 {
				continue
			}
			best := 0
			for i := 1; i < h.PrivateVMs; i++ {
				if load[i] < load[best] {
					best = i
				}
			}
			a.Queues[best] = append(a.Queues[best], cluster...)
			for _, t := range cluster {
				load[best] += wf.Task(t).Work
			}
		}
		// Public VMs, one per offloaded cluster.
		for c, cluster := range clusters {
			if clusterVM[c] < 0 {
				continue
			}
			a.Types = append(a.Types, h.PublicType)
			a.Queues = append(a.Queues, append([]dag.TaskID(nil), cluster...))
			a.Prepaid = append(a.Prepaid, false)
		}
		// Sharing a VM between clusters can interleave their dependencies;
		// ordering every queue by one global topological order keeps the
		// co-location (and its transfer savings) while guaranteeing a
		// feasible execution order.
		topoPos := make([]int, wf.Len())
		for i, t := range wf.TopoOrder() {
			topoPos[t] = i
		}
		for _, q := range a.Queues {
			sortByPos(q, topoPos)
		}
		return a, nil
	}

	evaluate := func() (*plan.Schedule, error) {
		a, err := build()
		if err != nil {
			return nil, err
		}
		return rp.Replay(a)
	}

	s, err := evaluate()
	if err != nil {
		return nil, err
	}
	best := s
	bestMk := s.Makespan()
	// Offload clusters in priority order until the deadline holds or
	// everything is public.
	for c := range clusters {
		if s.Makespan() <= h.Deadline {
			return s, nil
		}
		clusterVM[c] = c
		if s, err = evaluate(); err != nil {
			return nil, err
		}
		if s.Makespan() < bestMk {
			best, bestMk = s, s.Makespan()
		}
	}
	if s.Makespan() <= h.Deadline {
		return s, nil
	}
	if bestMk < math.Inf(1) && best != nil {
		return best, ErrDeadlineUnreachable
	}
	return s, ErrDeadlineUnreachable
}

// sortByPos orders task IDs in place by their position in a global
// topological order.
func sortByPos(q []dag.TaskID, pos []int) {
	sort.SliceStable(q, func(i, j int) bool { return pos[q[i]] < pos[q[j]] })
}

// pathClusters groups the tasks into the Path Clustering Heuristic's path
// clusters under the homogeneous cost model of typ: starting from the
// highest-priority unclustered task, it repeatedly follows the
// highest-priority unclustered successor. Every task appears in exactly
// one cluster, and consecutive members of a cluster are joined by an edge.
func pathClusters(wf *dag.Workflow, platform *cloud.Platform, typ cloud.InstanceType) [][]dag.TaskID {
	m := costModel(platform, typ)
	rank := wf.UpwardRanks(m)
	clustered := make([]bool, wf.Len())
	order := wf.RankOrder(m)

	var clusters [][]dag.TaskID
	for _, head := range order {
		if clustered[head] {
			continue
		}
		cluster := []dag.TaskID{head}
		clustered[head] = true
		// Follow the highest-priority unclustered successor.
		cur := head
		for {
			var next dag.TaskID = -1
			for _, s := range wf.Succ(cur) {
				if clustered[s] {
					continue
				}
				if next < 0 || rank[s] > rank[next] || (rank[s] == rank[next] && s < next) {
					next = s
				}
			}
			if next < 0 {
				break
			}
			cluster = append(cluster, next)
			clustered[next] = true
			cur = next
		}
		clusters = append(clusters, cluster)
	}
	return clusters
}
