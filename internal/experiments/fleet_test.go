package experiments

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/fleet"
)

// TestRunFleetReferenceNonVacuous pins the violation-injection knob:
// skipping every 16th firewall seed pair must raise a non-empty digest
// stream, otherwise the fleet's conservation checks are vacuously true.
func TestRunFleetReferenceNonVacuous(t *testing.T) {
	ref, err := RunFleetReference(8000, 1, 16, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Counts.Reports == 0 {
		t.Fatal("skip-seed-every=16 raised no reports; conservation would be vacuous")
	}
	if len(ref.DigestKeys) == 0 {
		t.Fatal("no aggregates reached the exporter")
	}
	if ref.Unaccounted != 0 {
		t.Fatalf("reference bus unaccounted = %d", ref.Unaccounted)
	}
	var digests uint64
	for _, c := range ref.DigestKeys {
		digests += c
	}
	if digests != ref.Counts.Reports {
		t.Fatalf("digest ledger %d != engine reports %d", digests, ref.Counts.Reports)
	}
}

// TestWriteCampusPcapRoundTrip proves the pcap rendering is lossless:
// reading the file back and parsing each frame recovers exactly the
// flow keys CampusEnginePackets models for the same (n, seed).
func TestWriteCampusPcapRoundTrip(t *testing.T) {
	const n, seed = 500, 3
	path := filepath.Join(t.TempDir(), "campus.pcap")
	if err := WriteCampusPcap(path, n, seed); err != nil {
		t.Fatal(err)
	}
	src, err := fleet.OpenPcap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	want, _ := CampusEnginePackets(n, seed)
	var dec dataplane.Decoded
	for i := 0; i < n; i++ {
		frame, err := src.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if err := dataplane.ParseInto(&dec, frame); err != nil {
			t.Fatalf("frame %d does not parse: %v", i, err)
		}
		if got := dataplane.FlowKeyOf(&dec); got != want[i].Key {
			t.Fatalf("frame %d key = %+v, want %+v", i, got, want[i].Key)
		}
		if uint32(len(frame)) != want[i].Len {
			t.Fatalf("frame %d len = %d, want %d", i, len(frame), want[i].Len)
		}
	}
	if _, err := src.Next(); err == nil {
		t.Fatal("capture has extra frames")
	}
}

// TestFleetExecParity is the end-to-end acceptance check: spawn the
// three daemons, replay a campus pcap through the process tree, and
// require exact verdict-multiset, counts, and digest parity with the
// in-process engine plus fleet-wide conservation.
func TestFleetExecParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process tree")
	}
	res, err := RunFleet(FleetConfig{Packets: 4000, Workers: 2, Seed: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(FormatFleet(res))
	if !res.VerdictParity || !res.CountsParity || !res.DigestParity {
		t.Fatalf("parity failed: verdicts=%v counts=%v digests=%v",
			res.VerdictParity, res.CountsParity, res.DigestParity)
	}
	if !res.Conserved || !res.IngestClean {
		t.Fatalf("conservation failed: conserved=%v ingestClean=%v ingest=%+v",
			res.Conserved, res.IngestClean, res.Ingest)
	}
	if res.Report.ReceivedDigests == 0 {
		t.Fatal("no digests crossed the wire; the parity check is vacuous")
	}
}

// TestFleetExecSoak kills worker 0 mid-stream and restarts it on the
// same address: the run must stay conserved for every summarized
// session, with the lost in-flight packets itemized by the ingest.
func TestFleetExecSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process tree")
	}
	res, err := RunFleet(FleetConfig{Packets: 30_000, Workers: 2, Loops: 2, Seed: 1, Kill: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(FormatFleet(res))
	if res.Kills != 1 {
		t.Fatalf("kills = %d, want 1", res.Kills)
	}
	if !res.Conserved {
		t.Fatalf("soak run not conserved: %+v", res.Report)
	}
	if res.Ingest.Reconnects == 0 {
		t.Fatal("ingest never reconnected after the kill")
	}
	var dropped uint64
	for _, v := range res.Ingest.Dropped {
		dropped += v
	}
	if res.Ingest.Acked+dropped != res.Ingest.Packets {
		t.Fatalf("ingest accounting leak: acked %d + dropped %d != assigned %d",
			res.Ingest.Acked, dropped, res.Ingest.Packets)
	}
}

// TestFormatFleetPeakRSSOrder: a report lists its daemons' peak RSS
// sorted by name, so two identical runs print identical reports.
func TestFormatFleetPeakRSSOrder(t *testing.T) {
	r := FleetResult{PeakRSSKB: map[string]uint64{"workerd-0": 3, "aggd": 1, "ingestd": 2}}
	want := FormatFleet(r)
	for i := 0; i < 50; i++ {
		if got := FormatFleet(r); got != want {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, got, want)
		}
	}
	var names []string
	for _, line := range strings.Split(want, "\n") {
		if rest, ok := strings.CutPrefix(line, "peak rss "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	if !slices.Equal(names, []string{"aggd", "ingestd", "workerd-0"}) {
		t.Fatalf("peak rss rows in order %v, want sorted by name", names)
	}
}
