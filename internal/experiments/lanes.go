package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
	"cxlfork/internal/rfork"
)

// DefaultLaneCounts is the lane sweep of the PR-2 figure.
var DefaultLaneCounts = []int{1, 2, 4, 8}

// LanePoint is one lane-count measurement of the CXLfork pipeline.
type LanePoint struct {
	Lanes int
	// Checkpoint is the first (cold-index) checkpoint latency: every
	// page misses the dedup cache and crosses the fabric.
	Checkpoint des.Time
	// Recheckpoint is a second checkpoint of the same warm parent: its
	// pages dedup against the first image's frames.
	Recheckpoint des.Time
	// Restore is the restore-phase latency of one MoW clone.
	Restore des.Time
	// Pages is the checkpointed data page count.
	Pages int
	// DedupHits / DedupMisses / DedupBytesSaved are the device counters
	// after both checkpoints.
	DedupHits       int64
	DedupMisses     int64
	DedupBytesSaved int64
}

// CheckpointNsPerPage returns the first checkpoint's per-page cost.
func (p LanePoint) CheckpointNsPerPage() float64 {
	if p.Pages == 0 {
		return 0
	}
	return float64(p.Checkpoint) / float64(p.Pages)
}

// RestoreNsPerPage returns the restore-phase per-page cost.
func (p LanePoint) RestoreNsPerPage() float64 {
	if p.Pages == 0 {
		return 0
	}
	return float64(p.Restore) / float64(p.Pages)
}

// LaneSweepResult is the speedup curve for one function.
type LaneSweepResult struct {
	Function string
	Points   []LanePoint
}

// Speedup returns point i's checkpoint speedup over the 1-lane point.
func (r *LaneSweepResult) Speedup(i int) float64 {
	if len(r.Points) == 0 || r.Points[i].Checkpoint == 0 {
		return 0
	}
	return float64(r.Points[0].Checkpoint) / float64(r.Points[i].Checkpoint)
}

// LaneSweep measures CXLfork checkpoint/restore latency for fnName at
// each lane count, on a fresh environment per point so the points are
// independent and individually reproducible. Each point also runs a
// second checkpoint of the same parent to exercise the dedup cache.
func LaneSweep(p params.Params, fnName string, laneCounts []int) (*LaneSweepResult, error) {
	spec, ok := faas.ByName(fnName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown function %q", fnName)
	}
	if len(laneCounts) == 0 {
		laneCounts = DefaultLaneCounts
	}
	// Points build fresh environments, so they fan out.
	points, err := sweep(p, len(laneCounts), func(i int) (LanePoint, error) {
		pp := p
		pp.CheckpointLanes = laneCounts[i]
		pp.RestoreLanes = laneCounts[i]
		return laneSweepPoint(pp, spec, laneCounts[i])
	})
	if err != nil {
		return nil, err
	}
	return &LaneSweepResult{Function: fnName, Points: points}, nil
}

// laneSweepPoint measures one lane count on a fresh environment.
func laneSweepPoint(p params.Params, spec faas.Spec, lanes int) (LanePoint, error) {
	c, err := NewEnv(p, spec)
	if err != nil {
		return LanePoint{}, err
	}
	rng := rand.New(rand.NewSource(42))
	parent, _, err := buildParent(c, spec, rng)
	if err != nil {
		return LanePoint{}, err
	}
	mech := core.New(c.Dev)

	img, ckptLat, err := checkpointTimed(c, parent, mech, "lanes-"+spec.Name)
	if err != nil {
		return LanePoint{}, err
	}
	m, err := measureRestore(c, spec, mech, img, rfork.Options{Policy: rfork.MigrateOnWrite}, ScenCXLfork, rng)
	if err != nil {
		return LanePoint{}, err
	}
	// Re-checkpoint the same warm parent: its pages dedup against the
	// first image still resident on the device.
	img2, reckptLat, err := checkpointTimed(c, parent, mech, "lanes2-"+spec.Name)
	if err != nil {
		return LanePoint{}, err
	}
	pt := LanePoint{
		Lanes:           lanes,
		Checkpoint:      ckptLat,
		Recheckpoint:    reckptLat,
		Restore:         m.Restore,
		Pages:           img.Pages(),
		DedupHits:       c.Dev.Dedup.Hits.Value(),
		DedupMisses:     c.Dev.Dedup.Misses.Value(),
		DedupBytesSaved: c.Dev.Dedup.BytesSaved.Value(),
	}
	img2.Release()
	img.Release()
	return pt, nil
}

// FormatLaneSweep renders the sweep as an aligned text table.
func FormatLaneSweep(r *LaneSweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lane sweep · %s (%d pages)\n", r.Function, r.Points[0].Pages)
	fmt.Fprintf(&b, "%-6s %12s %9s %12s %12s %10s %12s\n",
		"lanes", "checkpoint", "speedup", "re-ckpt", "restore", "dedup-hit", "bytes-saved")
	for i, pt := range r.Points {
		total := pt.DedupHits + pt.DedupMisses
		rate := 0.0
		if total > 0 {
			rate = float64(pt.DedupHits) / float64(total)
		}
		fmt.Fprintf(&b, "%-6d %12v %8.2fx %12v %12v %9.0f%% %12d\n",
			pt.Lanes, pt.Checkpoint, r.Speedup(i), pt.Recheckpoint, pt.Restore, 100*rate, pt.DedupBytesSaved)
	}
	return b.String()
}
