package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
)

//go:embed pins.json
var defaultPins []byte

// pins are the simulated outputs the benchmark checks. Both Azure
// workloads replay the same fixed trace at every seed, so they share one
// pin that every run checks. The served-mix pins hold for one seed.
type pins struct {
	Azure struct {
		Fingerprint string `json:"fingerprint"`
		Events      uint64 `json:"events"`
		Arrivals    int    `json:"arrivals"`
		Completed   int    `json:"completed"`
		P99NS       int64  `json:"p99_ns"`
	} `json:"azure"`
	Served struct {
		Seed int64 `json:"seed"`
		// Digest is the FNV-1a hash of Fingerprints in order.
		Digest       string   `json:"digest"`
		Fingerprints []string `json:"fingerprints"`
	} `json:"served_mix"`
}

// pinnedSessions is how many served-mix sessions the pins cover; a run
// that gets further checks only the first ones.
const pinnedSessions = 64

// writePins computes the pins in process and writes them as JSON: a
// plain Azure replay, and the served-mix specs of seed replayed through
// the same pipeline the traced run checks against the server.
func writePins(w io.Writer, seed int64) error {
	var p pins
	p.Served.Seed = seed
	r, err := runJob(nil, azureJob(false, "pin"), 0)
	if err != nil {
		return err
	}
	p.Azure.Fingerprint = r.fingerprint
	p.Azure.Events = r.events
	p.Azure.Arrivals = r.arrivals
	p.Azure.Completed = r.res.Completed
	p.Azure.P99NS = int64(r.res.Overall.P99())

	gen := newSpecGen(seed)
	for i := 0; i < pinnedSessions; i++ {
		r, err := runJob(nil, replicaJob(gen.next(), "pin"), 0)
		if err != nil {
			return fmt.Errorf("session %d: %w", i+1, err)
		}
		p.Served.Fingerprints = append(p.Served.Fingerprints, r.fingerprint)
	}
	p.Served.Digest = digest(p.Served.Fingerprints)

	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// checkAzurePins compares an Azure replay with the pins. Telemetry adds
// its own sampling events, so an observed replay's event count is not
// checked; everything it simulated must still match.
func checkAzurePins(r *jobResult, p pins, observed bool) []string {
	var problems []string
	if r.fingerprint != p.Azure.Fingerprint {
		problems = append(problems, fmt.Sprintf("azure fingerprint %s, pinned %s", r.fingerprint, p.Azure.Fingerprint))
	}
	events := r.events
	if observed {
		events = p.Azure.Events
	}
	if events != p.Azure.Events || r.arrivals != p.Azure.Arrivals || r.res.Completed != p.Azure.Completed {
		problems = append(problems, fmt.Sprintf("azure events/arrivals/completed %d/%d/%d, pinned %d/%d/%d",
			r.events, r.arrivals, r.res.Completed, p.Azure.Events, p.Azure.Arrivals, p.Azure.Completed))
	}
	if got := int64(r.res.Overall.P99()); got != p.Azure.P99NS {
		problems = append(problems, fmt.Sprintf("azure P99 %d ns, pinned %d ns", got, p.Azure.P99NS))
	}
	return problems
}

// checkServedPins compares the fingerprints a run reached with the
// pinned ones, returning one problem per mismatch. (Digest, which the
// tests hold equal to the digest of Fingerprints, then matches too.)
func checkServedPins(got []string, p pins) []string {
	var problems []string
	pinned := p.Served.Fingerprints
	for i, fp := range got {
		if i < len(pinned) && fp != pinned[i] {
			problems = append(problems, fmt.Sprintf("session %d fingerprint %s, pinned %s", i+1, fp, pinned[i]))
		}
	}
	return problems
}

// digest is the FNV-1a hash of the fingerprints in order.
func digest(fps []string) string {
	h := fnv.New64a()
	for _, fp := range fps {
		h.Write([]byte(fp))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
