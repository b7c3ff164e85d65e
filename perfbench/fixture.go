package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"softreputation/internal/core"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/storedb"
)

// Fixture shape. The hot set is the programs users rate and most
// lookups ask about; the whole catalog is about 12x the daemon's
// default 4,096-entry report cache, so uniform lookups mostly miss.
const (
	catalogSize   = 50000
	vendorCount   = 5000
	hotCount      = 2000
	userCount     = 200
	ratingsPerHot = 5 // 10,000 seeded ratings, each with a comment
	fixturePepper = "perfbench pepper"
	// fixtureSeed seeds the benchmark's catalog and fixture. It is fixed,
	// and -seed varies only the op sequence, so the database a run starts
	// from (and with it set-up time and memory) is the same for every
	// seed, and one build serves every run in a checkout.
	fixtureSeed    = 1
	fixturePassPre = "pw-"
)

// Catalog is the seeded program set and user roster. It is a pure
// function of the seed, so the load generator can rebuild it without
// reading the fixture.
type Catalog struct {
	Seed     int64
	Programs []core.SoftwareMeta
	Users    []string
	// Rated[h] lists the users who rated hot program h in the fixture;
	// the hot programs are the first len(Rated) of Programs.
	Rated [][]int
}

// NewCatalog derives the benchmark's catalog for a seed.
func NewCatalog(seed int64) *Catalog { return newCatalog(seed, catalogSize, hotCount, userCount) }

// newCatalog derives a catalog of the given shape; the benchmark's own
// tests use a small one.
func newCatalog(seed int64, programs, hot, users int) *Catalog {
	rng := rand.New(rand.NewSource(seed))
	c := &Catalog{Seed: seed}
	c.Programs = make([]core.SoftwareMeta, programs)
	for i := range c.Programs {
		var content [16]byte
		binary.BigEndian.PutUint64(content[:8], uint64(seed))
		binary.BigEndian.PutUint64(content[8:], uint64(i))
		c.Programs[i] = core.SoftwareMeta{
			ID:       core.ComputeSoftwareID(content[:]),
			FileName: fmt.Sprintf("prog%05d.exe", i),
			FileSize: 4096 + rng.Int63n(1<<22),
			Vendor:   fmt.Sprintf("Vendor %04d", rng.Intn(vendorCount)),
			Version:  fmt.Sprintf("%d.%d", 1+rng.Intn(9), rng.Intn(20)),
		}
	}
	c.Users = make([]string, users)
	for i := range c.Users {
		c.Users[i] = fmt.Sprintf("user%03d", i)
	}
	c.Rated = make([][]int, hot)
	for h := range c.Rated {
		c.Rated[h] = rng.Perm(users)[:ratingsPerHot]
		sort.Ints(c.Rated[h])
	}
	return c
}

// Password returns a fixture user's password.
func (c *Catalog) Password(user int) string { return fixturePassPre + c.Users[user] }

// Published is one program's published score, as the fixture's
// aggregation run left it.
type Published struct {
	Score float64 `json:"s"`
	Votes int     `json:"v"`
}

// Fixture is a built template directory and its expected published
// scores, indexed like Catalog.Programs.
type Fixture struct {
	Dir       string
	Published []Published
	Stats     repo.Stats // record counts in the template
}

const (
	templateDir  = "template"
	expectedFile = "expected.json"
	doneFile     = "done"
)

// LoadOrBuildFixture returns the fixture for seed under root, building
// it first when root holds no finished one. Building replaces whatever
// root held, so at most one fixture stays on disk.
func LoadOrBuildFixture(root string, cat *Catalog) (*Fixture, error) {
	dir := filepath.Join(root, fmt.Sprintf("seed-%d", cat.Seed))
	if _, err := os.Stat(filepath.Join(dir, doneFile)); err != nil {
		if err := os.RemoveAll(root); err != nil {
			return nil, err
		}
		if err := BuildFixture(dir, cat); err != nil {
			return nil, err
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, expectedFile))
	if err != nil {
		return nil, err
	}
	var exp expected
	if err := json.Unmarshal(raw, &exp); err != nil {
		return nil, fmt.Errorf("fixture: %s: %w", expectedFile, err)
	}
	f := &Fixture{Dir: filepath.Join(dir, templateDir), Published: exp.Published, Stats: exp.Stats}
	if len(f.Published) != len(cat.Programs) {
		return nil, fmt.Errorf("fixture: %d published scores for %d programs", len(f.Published), len(cat.Programs))
	}
	return f, nil
}

// BuildFixture writes the template store for cat into dir/template and
// its published scores into dir/expected.json, through the server's
// public operations only: Bootstrap imports the catalog, users register,
// activate and log in, every hot program gets its seeded votes with
// comments, and one aggregation run publishes scores. The template is
// then compacted (so a run starts with an empty WAL and no pending
// compaction) and its integrity checked. The aggregation run records
// the schedule, so the daemon's 24-hour job is not due during a run.
func BuildFixture(dir string, cat *Catalog) error {
	tdir := filepath.Join(dir, templateDir)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	exp, err := buildTemplate(tdir, cat)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(exp)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, expectedFile), raw, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, doneFile), nil, 0o644)
}

// expected is what a fixture's template holds, for the output checks.
type expected struct {
	Published []Published `json:"published"`
	Stats     repo.Stats  `json:"stats"`
}

func buildTemplate(tdir string, cat *Catalog) (exp expected, err error) {
	// Automatic compaction is off while importing; the template is
	// compacted once at the end.
	store, err := repo.Open(storedb.Options{Dir: tdir, CompactEvery: -1})
	if err != nil {
		return exp, err
	}
	defer func() {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}()
	mailer := server.NewMemoryMailer()
	srv, err := server.New(server.Config{
		Store: store, EmailPepper: fixturePepper, Mailer: mailer, DisableTelemetry: true,
	})
	if err != nil {
		return exp, err
	}
	rng := rand.New(rand.NewSource(cat.Seed ^ 0x5eed))
	entries := make([]server.BootstrapEntry, len(cat.Programs))
	for i, m := range cat.Programs {
		entries[i] = server.BootstrapEntry{
			Meta:  m,
			Score: float64(1+rng.Intn(90)) / 10,
			Votes: 1 + rng.Intn(40),
		}
	}
	if err := srv.Bootstrap(entries); err != nil {
		return exp, fmt.Errorf("fixture: bootstrap: %w", err)
	}
	sessions := make([]string, len(cat.Users))
	for u, name := range cat.Users {
		email := name + "@perfbench.example"
		err := srv.Register(server.RegisterParams{Username: name, Password: cat.Password(u), Email: email})
		if err != nil {
			return exp, fmt.Errorf("fixture: register %s: %w", name, err)
		}
		mail, ok := mailer.Read(email)
		if !ok {
			return exp, fmt.Errorf("fixture: no activation mail for %s", name)
		}
		if _, err := srv.Activate(mail.Token); err != nil {
			return exp, fmt.Errorf("fixture: activate %s: %w", name, err)
		}
		if sessions[u], err = srv.Login(name, cat.Password(u)); err != nil {
			return exp, fmt.Errorf("fixture: login %s: %w", name, err)
		}
	}
	for h, users := range cat.Rated {
		for _, u := range users {
			score := 1 + rng.Intn(10)
			_, err := srv.Vote(sessions[u], cat.Programs[h], score, 0, fixtureComment(h, u))
			if err != nil {
				return exp, fmt.Errorf("fixture: vote %s on %d: %w", cat.Users[u], h, err)
			}
		}
	}
	if err := srv.RunAggregation(); err != nil {
		return exp, fmt.Errorf("fixture: aggregation: %w", err)
	}
	if err := store.Compact(); err != nil {
		return exp, fmt.Errorf("fixture: compact: %w", err)
	}
	if problems, err := store.CheckIntegrity(); err != nil || len(problems) > 0 {
		return exp, fmt.Errorf("fixture: integrity check: %v %v", err, problems)
	}
	exp.Published = make([]Published, len(cat.Programs))
	for i, m := range cat.Programs {
		sc, ok, err := store.GetScore(m.ID)
		if err != nil || !ok {
			return exp, fmt.Errorf("fixture: no published score for program %d: %v", i, err)
		}
		exp.Published[i] = Published{Score: sc.Score, Votes: sc.Votes}
	}
	exp.Stats, err = store.Stats()
	return exp, err
}

func fixtureComment(hot, user int) string {
	return fmt.Sprintf("seeded remark %d/%d: behaves as the vendor says", hot, user)
}

// Digest summarises what a fixture holds: its record counts and every
// program's published score and vote count, in catalog order. Two fixtures built from one seed
// have equal digests.
func (f *Fixture) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v;", f.Stats)
	for _, p := range f.Published {
		fmt.Fprintf(h, "%v/%d;", p.Score, p.Votes)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// copyTree copies the regular files of src into a new directory dst.
func copyTree(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
