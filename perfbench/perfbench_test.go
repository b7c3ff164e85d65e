package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"softreputation/internal/client"
	"softreputation/internal/repo"
	"softreputation/internal/server"
)

// smallCatalog keeps the tests quick: 1,000 programs, 200 of them hot,
// 50 users. That leaves 9,000 fresh (user, hot program) pairs, enough
// for vote-mixed to warm up until its first compaction.
func smallCatalog(seed int64) *Catalog { return newCatalog(seed, 1000, 200, 50) }

func TestSameSeedSameOpSequence(t *testing.T) {
	for name, spec := range Specs {
		cat := smallCatalog(1)
		a := NewGenerator(spec, cat, 7)
		b := NewGenerator(spec, cat, 7)
		c := NewGenerator(spec, cat, 8)
		same := true
		for i := 0; i < 500; i++ {
			ua, ub, uc := a.Next(), b.Next(), c.Next()
			if !reflect.DeepEqual(ua, ub) {
				t.Fatalf("%s: unit %d differs between two generators of seed 7: %+v vs %+v", name, i, ua, ub)
			}
			same = same && reflect.DeepEqual(ua, uc)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 produced the same 500 units", name)
		}
	}
}

func TestVotesUseFreshPairs(t *testing.T) {
	cat := smallCatalog(3)
	g := NewGenerator(Specs["vote-mixed"], cat, 3)
	seen := map[[2]int]bool{}
	for h, users := range cat.Rated {
		for _, u := range users {
			seen[[2]int{u, h}] = true
		}
	}
	votes := 0
	for i := 0; i < 2000; i++ {
		u := g.Next()
		if u.Kind != unitVote {
			continue
		}
		votes++
		if seen[[2]int{u.User, u.Prog}] {
			t.Fatalf("unit %d votes again on the rated pair user %d, program %d", i, u.User, u.Prog)
		}
		seen[[2]int{u.User, u.Prog}] = true
	}
	if votes < 400 || votes > 600 {
		t.Errorf("%d vote units in 2000, want about 500 (25%%)", votes)
	}
}

func TestSameSeedSameFixture(t *testing.T) {
	root := t.TempDir()
	a, err := LoadOrBuildFixture(filepath.Join(root, "a"), smallCatalog(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadOrBuildFixture(filepath.Join(root, "b"), smallCatalog(5))
	if err != nil {
		t.Fatal(err)
	}
	c, err := LoadOrBuildFixture(filepath.Join(root, "c"), smallCatalog(6))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Errorf("two fixtures of seed 5 differ")
	}
	if a.Digest() == c.Digest() {
		t.Errorf("fixtures of seeds 5 and 6 are the same")
	}
	if want := (repo.Stats{Users: 50, Software: 1000, Ratings: 1000, Comments: 1000}); a.Stats != want {
		t.Errorf("fixture holds %+v, want %+v", a.Stats, want)
	}
}

func TestParseExpositionLive(t *testing.T) {
	srv, err := server.New(server.Config{Store: repo.OpenMemory(), EmailPepper: "p"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cat := smallCatalog(1)
	api := client.NewAPI(ts.URL, &http.Client{Transport: client.NewTransport()})
	for i := 0; i < 3; i++ {
		if _, err := api.Lookup(context.Background(), cat.Programs[i]); err != nil {
			t.Fatal(err)
		}
	}
	d := &Daemon{Base: ts.URL}
	m, err := d.Scrape(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`reputation_http_request_seconds_count{endpoint="lookup"}`]; got != 3 {
		t.Errorf("lookup histogram count %v, want 3", got)
	}
	if got := m[`reputation_http_requests_total{endpoint="lookup",format="xml",code="2xx"}`]; got != 3 {
		t.Errorf("lookup request counter %v, want 3", got)
	}
	if _, ok := m["reputation_storedb_wal_fsyncs_total"]; !ok {
		t.Errorf("no unlabelled storedb series in %d parsed series", len(m))
	}
	if m[`reputation_http_request_seconds_sum{endpoint="lookup"}`] <= 0 {
		t.Errorf("lookup histogram sum is not positive")
	}
}

// buildDaemon compiles reputationd from the enclosing module.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "reputationd")
	cmd := exec.Command("go", "build", "-o", bin, "softreputation/cmd/reputationd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("build reputationd: %v", err)
	}
	return bin
}

// TestSmokeRuns runs every workload for two seconds against the real
// daemon on a small fixture, untraced and traced, and checks that every
// answer passed its checks and that the metrics reported are exactly
// the ones BENCHMARK.json declares, with its units.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var contract struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	bin := buildDaemon(t)
	root := t.TempDir()
	cat := smallCatalog(2)
	for _, name := range []string{"lookup-hot", "batch-cold", "vote-mixed"} {
		for _, traced := range []bool{false, true} {
			cfg := Config{
				Spec: Specs[name], Seed: 2, Seconds: 2, Trace: traced, DaemonBin: bin,
				RunDir: filepath.Join(root, name), TraceDir: filepath.Join(root, "traces"),
				Catalog: cat, FixtureRoot: filepath.Join(root, "fixture"),
			}
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			want := contract.EndToEnd
			if traced {
				want = contract.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s is %+v (present %v), BENCHMARK.json says unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if traced && res.Metrics["transport.dials"].Value != maxSenders {
				t.Errorf("%s: %v dials, want one per sender", name, res.Metrics["transport.dials"].Value)
			}
			if err := os.RemoveAll(cfg.RunDir); err != nil {
				t.Fatal(err)
			}
		}
	}
}
