package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"

	"scout"
	"scout/internal/bdd"
	"scout/internal/fabric"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/topo"
	"scout/internal/workload"
)

// standingRules is the number of TCAM rules the standing faults of a
// session workload's fabric remove. The faults keep every round
// localizing; fixing their load rather than their number keeps a round's
// cost (patches, failed edges, localization) from swinging with the
// objects a seed happens to pick.
const standingRules = 1200

// standingObjectRules caps the deployed rules of one standing faulty
// object, so the load is spread over a dozen or more objects: precision
// and recall, which the standing faults decide on these workloads, are
// then means over many objects rather than over the three to twelve an
// uncapped draw gives.
const standingObjectRules = 150

// standingNoise is the number of healthy objects given a recent
// change-log entry on a session workload's fabric.
const standingNoise = 4

// faultyFabric builds the fabric a session workload runs on: deployed,
// with whole-object faults drawn in seeded order until they remove about
// standingRules rules (objects over standingObjectRules, or that would
// overshoot by more than a tenth, are passed over), plus change-log
// noise. It returns the ground truth.
func faultyFabric(pol *policy.Policy, tp *topo.Topology, rng *rand.Rand) (*fabric.Fabric, []object.Ref, error) {
	f, err := newFabric(pol, tp, rng.Int63())
	if err != nil {
		return nil, nil, err
	}
	idx := workload.BuildIndex(f.Deployment())
	cands := idx.Objects()
	truth := object.NewSet()
	removed := 0
	var noise []object.Ref
	for _, i := range rng.Perm(len(cands)) {
		ref := cands[i]
		if removed >= standingRules*9/10 {
			if len(noise) < standingNoise {
				noise = append(noise, ref)
				continue
			}
			break
		}
		est := len(idx.Instances(ref))
		if est > standingObjectRules || removed+est > standingRules*11/10 {
			continue
		}
		n, err := f.InjectObjectFault(ref, 1)
		if err != nil {
			return nil, nil, err
		}
		removed += n
		truth.Add(ref)
	}
	for _, ref := range noise {
		f.RecordChange(faultlog.OpModify, ref, "unrelated operator action")
	}
	return f, truth.Sorted(), nil
}

// withTruth returns the standing truth plus one more faulty object.
func withTruth(standing []object.Ref, extra object.Ref) []object.Ref {
	set := object.NewSet(standing...)
	set.Add(extra)
	return set.Sorted()
}

// reportJSON serializes a report without its wall-clock fields.
func reportJSON(rep *scout.Report) ([]byte, error) {
	c := *rep
	c.Elapsed = 0
	return json.Marshal(&c)
}

// sameReport compares two reports' JSON, wall-clock fields excluded.
func sameReport(a, b *scout.Report) (bool, error) {
	ja, err := reportJSON(a)
	if err != nil {
		return false, err
	}
	jb, err := reportJSON(b)
	if err != nil {
		return false, err
	}
	return string(ja) == string(jb), nil
}

// sessionCounters records one session round's public counters from the
// session stats before and after it. prevCache is the op-cache tally of
// the previous round's report (its counters are cumulative per checker).
func (h *harness) sessionCounters(before, after scout.SessionStats, rep *scout.Report, prevCache *bdd.CacheStats) {
	checked := float64(after.Checked - before.Checked)
	replayed := float64(after.Replayed - before.Replayed)
	dedup := float64(after.DedupReplays - before.DedupReplays)
	h.add("equiv.switches_checked", checked-dedup)
	hits, misses := float64(after.EncodeHits-before.EncodeHits), float64(after.EncodeMisses-before.EncodeMisses)
	h.addRatio("equiv.encode_hit_ratio", hits, hits+misses)
	fh, fm := float64(after.FoldHits-before.FoldHits), float64(after.FoldMisses-before.FoldMisses)
	h.addRatio("equiv.fold_hit_ratio", fh, fh+fm)
	h.add("bdd.compactions", float64(after.CheckerCompactions-before.CheckerCompactions))
	h.gauges["bdd.base_nodes"] = float64(after.BaseNodes)
	h.gauges["bdd.delta_nodes"] = float64(after.DeltaNodes)
	if es := rep.EncodeStats; es != nil {
		cur := es.OpCache
		prev := bdd.CacheStats{}
		if prevCache != nil {
			prev = *prevCache
		}
		hitsD := float64(cur.Hits()) - float64(prev.Hits())
		h.addRatio("bdd.opcache_hit_ratio", hitsD, hitsD+float64(cur.Misses)-float64(prev.Misses))
	}
	h.addRatio("scout.replay_ratio", replayed, checked+replayed)
	h.add("scout.over_cap", float64(after.OverCap-before.OverCap))
	h.add("store.base_loads", float64(after.BaseLoads-before.BaseLoads))
	h.localizeCounters(rep)
}

// scratchDir creates a fresh directory under the run's scratch space.
func (h *harness) scratchDir(name string) (string, error) {
	dir := filepath.Join(h.cfg.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
