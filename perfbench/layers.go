package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/core"
	"softreputation/internal/repcache"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/storedb"
	"softreputation/internal/wire"
)

// Sizes of the layer phase's replays. Probes that fsync use fewer
// inputs: each costs a disk flush.
const (
	layerSample = 2000 // units replayed through ServeHTTP and the read probes
	layerWrites = 200  // votes, ratings and synced updates
	codecRounds = 20   // passes over the sample for nanosecond-scale codec probes
	admitRounds = 20000
)

// layers computes the traced run's per-layer metrics: counter deltas
// the daemon exposes, and an in-process replay of the workload's inputs
// through each layer's public functions on a copy of the daemon's data
// directory as the run left it.
type layers struct {
	b       *Bench
	cfg     Config
	gen     *Generator
	e       *endToEnd
	ph      *tracedPhases
	dataDir string
	lagMax  float64
	spans   []Span
	op      uint64
}

// span times fn as one layer-phase span and returns its duration.
func (l *layers) span(name string, fn func()) time.Duration {
	l.op++
	start := time.Now()
	fn()
	end := time.Now()
	l.spans = append(l.spans, Span{Name: name, Op: l.op, Parent: "layer-phase",
		Start: start.Sub(l.b.Epoch).Nanoseconds(), End: end.Sub(l.b.Epoch).Nanoseconds()})
	return end.Sub(start)
}

func us(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(max(n, 1))
}
func ns(d time.Duration, n int) float64 { return float64(d) / float64(max(n, 1)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *layers) run(ctx context.Context, res *Result) error {
	if err := l.outside(res); err != nil {
		return err
	}
	return l.inside(ctx, res)
}

// handlerSeconds is the daemon's handler time and request count for
// one endpoint between two scrapes.
func handlerSeconds(before, after Metrics, endpoint string) (sum, count float64) {
	lbl := `{endpoint="` + endpoint + `"}`
	return Delta(before, after, "reputation_http_request_seconds_sum"+lbl),
		Delta(before, after, "reputation_http_request_seconds_count"+lbl)
}

var endpoints = []string{"lookup", "lookup_batch", "vote"}

// outside derives the per-layer figures the daemon and the client
// sockets expose, over the run's closed and open loops.
func (l *layers) outside(res *Result) error {
	e := l.e
	a, z := e.s0.Prom, e.s2.Prom
	ops := float64(e.closed.Ops + e.open.Ops)
	votes := float64(e.closed.Votes + e.open.Votes)

	res.set("transport.dials", float64(e.dials), "count")
	res.set("transport.bytes_in_per_op", float64(e.s2.Dialer.In-e.s0.Dialer.In)/ops, "B")
	res.set("transport.bytes_out_per_op", float64(e.s2.Dialer.Out-e.s0.Dialer.Out)/ops, "B")
	for _, ep := range endpoints {
		sum, n := handlerSeconds(a, z, ep)
		res.set("server.handler_us."+ep, ratio(sum*1e6, n), "us")
	}

	// Client spans and daemon handler time over the same traced slices.
	var spanSum time.Duration
	for _, s := range l.ph.spans {
		spanSum += time.Duration(s.End - s.Start)
	}
	var hSum, hN float64
	for _, w := range l.ph.windows {
		for _, ep := range endpoints {
			s, n := handlerSeconds(w[0], w[1], ep)
			hSum += s
			hN += n
		}
	}
	clientUS := us(spanSum, len(l.ph.spans))
	l.ph.handlerUS = ratio(hSum*1e6, hN)
	res.set("ledger.client_span_us", clientUS, "us")
	res.set("transport.us_per_call", clientUS-l.ph.handlerUS, "us")
	untraced := float64(l.ph.untraced.Ops) / l.ph.untracedWall.Seconds()
	traced := float64(l.ph.traced.Ops) / l.ph.tracedWall.Seconds()
	res.set("trace.overhead_share", 1-traced/untraced, "ratio")

	for cl := admission.Critical; cl < admission.NumClasses; cl++ {
		lbl := func(outcome string) string {
			return fmt.Sprintf(`reputation_admission_requests_total{class="%s",outcome="%s"}`, cl, outcome)
		}
		shed := Delta(a, z, lbl("shed"))
		res.set("admission.shed_share."+cl.String(), ratio(shed, shed+Delta(a, z, lbl("admitted"))), "ratio")
	}
	res.set("admission.limit_end", z["reputation_admission_limit"], "count")

	hits := Delta(a, z, "reputation_repcache_hits_total")
	misses := Delta(a, z, "reputation_repcache_misses_total")
	res.set("repcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("repcache.evictions_per_op", Delta(a, z, "reputation_repcache_evictions_total")/ops, "count")
	res.set("repcache.singleflight_collapsed", Delta(a, z, "reputation_repcache_singleflight_collapsed_total"), "count")
	res.set("repcache.invalidations_per_vote", ratio(Delta(a, z, "reputation_repcache_invalidations_total"), votes), "count")

	res.set("storedb.fsyncs_per_vote", ratio(Delta(a, z, "reputation_storedb_wal_fsyncs_total"), votes), "count")
	res.set("storedb.group_size", ratio(Delta(a, z, "reputation_storedb_wal_batches_total"), Delta(a, z, "reputation_storedb_wal_groups_total")), "count")
	res.set("storedb.wal_bytes_per_vote", ratio(Delta(a, z, "reputation_storedb_wal_bytes_total"), votes), "B")
	// Compactions since the daemon started, warm-up included: the
	// fixture starts compacted, so every one was paid for by the run.
	res.set("storedb.compactions", z["reputation_storedb_compactions_total"], "count")
	res.set("storedb.compactor_lag_max", l.lagMax, "count")
	res.set("storedb.disk_write_bytes_per_vote", ratio(float64(e.s2.Proc.WriteBytes-e.s0.Proc.WriteBytes), votes), "B")

	frames := Delta(a, z, `reputation_wire_binary_frames_total{dir="in"}`) + Delta(a, z, `reputation_wire_binary_frames_total{dir="out"}`)
	res.set("wire.binary_frames_per_op", frames/ops, "count")

	res.set("bench.client_cpu_us_per_op", us(e.s1.CPU-e.s0.CPU, e.closed.Ops), "us")
	res.set("bench.gen_late_p99_ms", ms(quantile(e.open.Late, 0.99)), "ms")
	return nil
}

// daemonConfig mirrors what reputationd builds from daemonArgs.
func daemonConfig(store *repo.Store, mailer server.Mailer) server.Config {
	return server.Config{
		Store:            store,
		EmailPepper:      fixturePepper,
		RequestTimeout:   10 * time.Second,
		MaxInflight:      256,
		AdmissionControl: true,
		Admission:        admission.Config{MaxLimit: 256, LatencyTarget: 50 * time.Millisecond},
		Mailer:           mailer,
	}
}

// replayRequest builds the HTTP request a sender would send for one
// lookup or vote, in the workload's wire format.
func (l *layers) replayRequest(kind int, prog int, batch []int, session string, u Unit) (*http.Request, error) {
	info := func(p int) wire.SoftwareInfo { return wireInfo(l.b.Cat.Programs[p]) }
	var path string
	var body []byte
	binary := l.b.Spec.Binary
	switch kind {
	case unitBatch:
		infos := make([]wire.SoftwareInfo, len(batch))
		for i, p := range batch {
			infos[i] = info(p)
		}
		path, body = wire.PathLookupBatch, wire.EncodeBinaryLookupBatch(infos, nil)
	case unitVote:
		req := wire.VoteRequest{Session: session, Software: info(prog), Score: u.Score, Behaviors: core.Behavior(0).String(), Comment: u.Comment}
		path = wire.PathVote
		if binary {
			body = wire.EncodeBinaryVote(&req)
		} else {
			var buf bytes.Buffer
			if err := wire.Encode(&buf, &req); err != nil {
				return nil, err
			}
			body = buf.Bytes()
		}
	default:
		req := wire.LookupRequest{Software: info(prog)}
		path = wire.PathLookup
		if binary {
			body = wire.EncodeBinaryLookup(&req)
		} else {
			var buf bytes.Buffer
			if err := wire.Encode(&buf, &req); err != nil {
				return nil, err
			}
			body = buf.Bytes()
		}
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if binary || kind == unitBatch {
		r.Header.Set("Content-Type", wire.BinaryContentType)
		r.Header.Set("Accept", wire.BinaryContentType)
	} else {
		r.Header.Set("Content-Type", wire.ContentType)
	}
	return r, nil
}

// serve runs one request through the handler chain in-process and
// returns the response body, failing on a non-200 answer.
func serve(h http.Handler, r *http.Request) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("replay %s: status %d: %s", r.URL.Path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// inside replays the workload's inputs through each layer in-process.
func (l *layers) inside(ctx context.Context, res *Result) error {
	// storedb.open_s: open a copy of the run's end state, as the daemon
	// would open its data directory.
	dir := filepath.Join(l.cfg.RunDir, "layers")
	if err := copyTree(l.dataDir, dir); err != nil {
		return err
	}
	var store *repo.Store
	var openErr error
	took := l.span("storedb.Open", func() { store, openErr = repo.Open(storedb.Options{Dir: dir, SyncWrites: true}) })
	if openErr != nil {
		return openErr
	}
	defer store.Close()
	res.set("storedb.open_s", took.Seconds(), "s")

	mailer := server.NewMemoryMailer()
	srv, err := server.New(daemonConfig(store, mailer))
	if err != nil {
		return err
	}
	h := srv.Handler()
	sessions := make([]string, len(l.b.Cat.Users))
	for u, name := range l.b.Cat.Users {
		if sessions[u], err = srv.Login(name, l.b.Cat.Password(u)); err != nil {
			return fmt.Errorf("layer phase login: %w", err)
		}
	}

	// The sample continues the run's unit sequence, so votes stay on
	// fresh pairs and lookups keep the workload's skew.
	units := make([]Unit, layerSample)
	for i := range units {
		units[i] = l.gen.Next()
	}
	var progs []int // every looked-up program, in order
	for _, u := range units {
		switch u.Kind {
		case unitBatch:
			progs = append(progs, u.Batch...)
		default:
			progs = append(progs, u.Prog)
		}
	}

	// Warm the in-process report cache with the sample's lookups, as
	// the daemon's was warm, then time every request of the sample.
	for _, u := range units {
		if u.Kind == unitVote {
			continue
		}
		r, err := l.replayRequest(u.Kind, u.Prog, u.Batch, "", u)
		if err != nil {
			return err
		}
		if _, err := serve(h, r); err != nil {
			return err
		}
	}
	cache0 := srv.ReportCacheStats()
	var serveTotal time.Duration
	var reqs, lookups, batchFrames, voteReqs int
	var reports [][]byte // report payloads (binary) or documents (XML), for the codec probes
	for _, u := range units {
		kinds := []int{u.Kind}
		if u.Kind == unitVote {
			kinds = append(kinds, unitLookup)
		}
		for _, k := range kinds {
			r, err := l.replayRequest(k, u.Prog, u.Batch, sessions[u.User], u)
			if err != nil {
				return err
			}
			var body []byte
			var serr error
			serveTotal += l.span("server.ServeHTTP", func() { body, serr = serve(h, r) })
			if serr != nil {
				return serr
			}
			reqs++
			switch k {
			case unitBatch:
				batchFrames++
			case unitVote:
				voteReqs++
			default:
				lookups++
			}
			if k != unitVote && len(reports) < layerSample {
				reports = append(reports, reportPayloads(body, l.b.Spec.Binary)...)
			}
		}
	}
	cache1 := srv.ReportCacheStats()
	serveUS := us(serveTotal, reqs)
	res.set("server.serve_http_us", serveUS, "us")

	// Domain operations: Server.Lookup bypasses the HTTP report cache,
	// so every call builds its report (the cache-cold path).
	var lookupTotal time.Duration
	n := min(len(progs), layerSample)
	for _, p := range progs[:n] {
		var lerr error
		lookupTotal += l.span("server.Lookup", func() { _, lerr = srv.Lookup(l.b.Cat.Programs[p]) })
		if lerr != nil {
			return lerr
		}
	}
	lookupUS := us(lookupTotal, n)
	res.set("server.lookup_op_us", lookupUS, "us")

	votes := make([]Unit, layerWrites)
	for i := range votes {
		votes[i] = l.gen.voteUnit()
	}
	var voteTotal time.Duration
	for _, v := range votes[:layerWrites/2] {
		var verr error
		voteTotal += l.span("server.Vote", func() {
			_, verr = srv.Vote(sessions[v.User], l.b.Cat.Programs[v.Prog], v.Score, 0, v.Comment)
		})
		if verr != nil {
			return fmt.Errorf("layer phase vote: %w", verr)
		}
	}
	voteUS := us(voteTotal, layerWrites/2)
	res.set("server.vote_op_us", voteUS, "us")

	// repo, on the same store.
	var scoreT, commentsT, ensureT time.Duration
	now := time.Now()
	for _, p := range progs[:n] {
		id := l.b.Cat.Programs[p].ID
		var rerr error
		scoreT += l.span("repo.GetScore", func() { _, _, rerr = store.GetScore(id) })
		if rerr != nil {
			return rerr
		}
		commentsT += l.span("repo.CommentsForSoftware", func() { _, rerr = store.CommentsForSoftware(id) })
		if rerr != nil {
			return rerr
		}
		ensureT += l.span("repo.EnsureSoftware", func() { _, rerr = store.EnsureSoftware(l.b.Cat.Programs[p], now) })
		if rerr != nil {
			return rerr
		}
	}
	res.set("repo.get_score_us", us(scoreT, n), "us")
	res.set("repo.comments_for_software_us", us(commentsT, n), "us")
	res.set("repo.ensure_software_us", us(ensureT, n), "us")
	var addT time.Duration
	for _, v := range votes[layerWrites/2:] {
		var aerr error
		addT += l.span("repo.AddRating", func() {
			_, aerr = store.AddRating(core.Rating{UserID: l.b.Cat.Users[v.User], Software: l.b.Cat.Programs[v.Prog].ID, Score: v.Score, At: now}, v.Comment)
		})
		if aerr != nil {
			return fmt.Errorf("layer phase rating: %w", aerr)
		}
	}
	res.set("repo.add_rating_us", us(addT, layerWrites-layerWrites/2), "us")

	// storedb: a read transaction doing one B+tree get ("s" is repo's
	// software bucket), and a synced one-key update.
	db := store.DB()
	var viewT, updT time.Duration
	for _, p := range progs[:n] {
		id := l.b.Cat.Programs[p].ID
		var verr error
		viewT += l.span("storedb.View", func() {
			verr = db.View(func(tx *storedb.Tx) error {
				b, err := tx.Bucket("s")
				if err != nil {
					return err
				}
				if _, ok := b.Get(id[:]); !ok {
					return fmt.Errorf("program %s missing", id)
				}
				return nil
			})
		})
		if verr != nil {
			return verr
		}
	}
	res.set("storedb.view_us", us(viewT, n), "us")
	for i := 0; i < layerWrites; i++ {
		var uerr error
		key := []byte(fmt.Sprintf("k%06d", i))
		updT += l.span("storedb.Update", func() {
			uerr = db.Update(func(tx *storedb.Tx) error {
				b, err := tx.Bucket("perfbench")
				if err != nil {
					return err
				}
				return b.Put(key, key)
			})
		})
		if uerr != nil {
			return uerr
		}
	}
	res.set("storedb.update_sync_us", us(updT, layerWrites), "us")

	// core: the incremental aggregation over everything voted so far.
	var aggErr error
	res.set("core.aggregate_s", l.span("server.RunIncrementalAggregation", func() { aggErr = srv.RunIncrementalAggregation() }).Seconds(), "s")
	if aggErr != nil {
		return aggErr
	}
	var compErr error
	res.set("storedb.compact_s", l.span("storedb.Compact", func() { compErr = db.Compact() }).Seconds(), "s")
	if compErr != nil {
		return compErr
	}

	// admission, standalone with the daemon's configuration.
	ac := admission.New(admission.Config{MaxLimit: 256, LatencyTarget: 50 * time.Millisecond})
	var admitErr error
	admitT := l.span("admission.Admit", func() {
		for i := 0; i < admitRounds; i++ {
			t, err := ac.Admit(ctx, admission.Interactive, "")
			if err != nil {
				admitErr = err
				return
			}
			t.Done()
		}
	})
	if admitErr != nil {
		return admitErr
	}
	res.set("admission.admit_us", us(admitT, admitRounds), "us")

	// wire codecs on the sample's own requests and answers.
	codec, err := l.codecs(res, units, reports, sessions)
	if err != nil {
		return err
	}

	// repcache, standalone at the daemon's default capacity, with the
	// sample's report bodies as values.
	rc := repcache.New(0)
	keys := make([]string, min(len(reports), repcache.DefaultEntries))
	for i := range keys {
		keys[i] = fmt.Sprint(i)
	}
	fillT := l.span("repcache.Do.fill", func() {
		for i, key := range keys {
			b := reports[i]
			_, _ = rc.Do(key, key, func() ([]byte, bool, error) { return b, true, nil })
		}
	})
	miss := func() ([]byte, bool, error) { return nil, false, errors.New("repcache probe: unexpected miss") }
	var hitErr error
	hitT := l.span("repcache.Do.hit", func() {
		for r := 0; r < codecRounds; r++ {
			for _, key := range keys {
				if _, err := rc.Do(key, key, miss); err != nil {
					hitErr = err
				}
			}
		}
	})
	if hitErr != nil {
		return hitErr
	}
	hitN := codecRounds * len(keys)
	res.set("repcache.do_fill_us", us(fillT, len(keys)), "us")
	res.set("repcache.do_hit_us", us(hitT, hitN), "us")

	// server.middleware_us: what ServeHTTP costs beyond the domain op
	// and the server-side codec, with misses weighted by the replay's
	// own cache hit ratio.
	missShare := ratio(float64(cache1.Misses-cache0.Misses), float64(cache1.Hits-cache0.Hits+cache1.Misses-cache0.Misses))
	var workUS float64
	perLookup := missShare * (lookupUS + codec.encodeReportUS)
	workUS += float64(lookups) * (codec.decodeLookupUS + perLookup)
	workUS += float64(batchFrames) * (codec.decodeBatchUS + batchSize*perLookup)
	workUS += float64(voteReqs) * (codec.decodeVoteUS + voteUS)
	middleware := serveUS - workUS/float64(reqs)
	res.set("server.middleware_us", middleware, "us")

	// The ledger: the client span is transport plus the daemon's
	// handler; the handler is what the in-process replay reproduces plus
	// what it does not.
	clientUS := res.Metrics["ledger.client_span_us"].Value
	unattributed := l.ph.handlerUS - serveUS
	res.set("ledger.unattributed_share", ratio(unattributed, clientUS), "ratio")
	res.Notes = append(res.Notes,
		"  ledger (mean per request, microseconds):",
		fmt.Sprintf("    client span                      %10.2f", clientUS),
		fmt.Sprintf("      transport (span - handler)     %10.2f", clientUS-l.ph.handlerUS),
		fmt.Sprintf("      daemon handler (/metrics)      %10.2f", l.ph.handlerUS),
		fmt.Sprintf("        middleware                   %10.2f", middleware),
		fmt.Sprintf("        codec + domain + cache       %10.2f", workUS/float64(reqs)),
		fmt.Sprintf("        unattributed                 %10.2f", unattributed),
		fmt.Sprintf("  tracing overhead: %.2f%% of closed-loop throughput", 100*res.Metrics["trace.overhead_share"].Value),
	)
	return nil
}

// codecTimes is the server-side codec cost per request, in microseconds.
type codecTimes struct {
	decodeLookupUS, encodeReportUS, decodeBatchUS, decodeVoteUS float64
}

// codecs times the wire layer on the sample's requests and answers.
// Each probe runs codecRounds passes in one span: single calls are too
// short to time one by one.
func (l *layers) codecs(res *Result, units []Unit, reportBodies [][]byte, sessions []string) (codecTimes, error) {
	var ct codecTimes
	var lookups, xmlLookups, batches, voteBodies [][]byte
	for _, u := range units {
		m := l.b.Cat.Programs[u.Prog]
		switch u.Kind {
		case unitVote:
			var buf bytes.Buffer
			req := wire.VoteRequest{Session: sessions[u.User], Software: wireInfo(m),
				Score: u.Score, Behaviors: core.Behavior(0).String(), Comment: u.Comment}
			if err := wire.Encode(&buf, &req); err != nil {
				return ct, err
			}
			voteBodies = append(voteBodies, buf.Bytes())
		case unitBatch:
			infos := make([]wire.SoftwareInfo, len(u.Batch))
			for i, p := range u.Batch {
				infos[i] = wireInfo(l.b.Cat.Programs[p])
			}
			batches = append(batches, payloadOf(wire.EncodeBinaryLookupBatch(infos, nil)))
		default:
			req := wire.LookupRequest{Software: wireInfo(m)}
			lookups = append(lookups, payloadOf(wire.EncodeBinaryLookup(&req)))
			var buf bytes.Buffer
			if err := wire.Encode(&buf, &req); err != nil {
				return ct, err
			}
			xmlLookups = append(xmlLookups, buf.Bytes())
		}
	}
	// Answers as LookupResponse values, whichever format the replay used.
	var resps []wire.LookupResponse
	for _, body := range reportBodies {
		var r wire.LookupResponse
		var err error
		if l.b.Spec.Binary {
			r, err = wire.DecodeBinaryReport(body)
		} else {
			err = wire.Decode(bytes.NewReader(body), &r)
		}
		if err != nil {
			return ct, fmt.Errorf("codec probe: decode replayed report: %w", err)
		}
		resps = append(resps, r)
	}
	var encoded [][]byte
	for i := range resps {
		encoded = append(encoded, payloadOf(wire.EncodeBinaryReport(&resps[i])))
	}

	timeLoop := func(name string, items int, fn func()) float64 {
		if items == 0 {
			return 0
		}
		d := l.span(name, func() {
			for r := 0; r < codecRounds; r++ {
				fn()
			}
		})
		return ns(d, items*codecRounds)
	}
	decLookup := timeLoop("wire.DecodeBinaryLookup", len(lookups), func() {
		for _, p := range lookups {
			_, _ = wire.DecodeBinaryLookup(p)
		}
	})
	encReport := timeLoop("wire.EncodeBinaryReport", len(resps), func() {
		for i := range resps {
			_ = wire.EncodeBinaryReport(&resps[i])
		}
	})
	decReport := timeLoop("wire.DecodeBinaryReport", len(encoded), func() {
		for _, p := range encoded {
			_, _ = wire.DecodeBinaryReport(p)
		}
	})
	decBatch := timeLoop("wire.DecodeBinaryLookupBatch", len(batches), func() {
		for _, p := range batches {
			_, _, _ = wire.DecodeBinaryLookupBatch(p)
		}
	})
	xmlVote := timeLoop("wire.Decode(vote)", len(voteBodies), func() {
		for _, b := range voteBodies {
			var v wire.VoteRequest
			_ = wire.Decode(bytes.NewReader(b), &v)
		}
	})
	xmlLookup := timeLoop("wire.Decode(lookup)", len(xmlLookups), func() {
		for _, b := range xmlLookups {
			var v wire.LookupRequest
			_ = wire.Decode(bytes.NewReader(b), &v)
		}
	})
	xmlReport := timeLoop("wire.Encode(report)", len(resps), func() {
		var buf bytes.Buffer
		for i := range resps {
			buf.Reset()
			_ = wire.Encode(&buf, &resps[i])
		}
	})
	res.set("wire.decode_lookup_ns", decLookup, "ns")
	res.set("wire.encode_report_ns", encReport, "ns")
	res.set("wire.decode_report_ns", decReport, "ns")
	res.set("wire.decode_batch_ns", decBatch, "ns")
	res.set("wire.xml_decode_vote_us", xmlVote/1e3, "us")
	res.set("wire.xml_encode_report_us", xmlReport/1e3, "us")
	res.set("wire.xml_decode_lookup_us", xmlLookup/1e3, "us")

	// The server-side codec of each request in the workload's format.
	ct.decodeLookupUS = decLookup / 1e3
	ct.encodeReportUS = encReport / 1e3
	if !l.b.Spec.Binary {
		ct.encodeReportUS = xmlReport / 1e3
		ct.decodeLookupUS = xmlLookup / 1e3
	}
	ct.decodeBatchUS = decBatch / 1e3
	ct.decodeVoteUS = xmlVote / 1e3
	return ct, nil
}

// reportPayloads splits a replayed lookup answer into reports: binary
// frame payloads (one per batch entry), or the XML document itself.
func reportPayloads(body []byte, binary bool) [][]byte {
	if !binary {
		return [][]byte{append([]byte(nil), body...)}
	}
	var out [][]byte
	for len(body) > 0 {
		p, rest, err := wire.SplitBinaryFrame(body)
		if err != nil {
			break
		}
		out = append(out, append([]byte(nil), p...))
		body = rest
	}
	return out
}

// wireInfo is the wire form of a program's metadata, as client.API
// sends it.
func wireInfo(m core.SoftwareMeta) wire.SoftwareInfo {
	return wire.SoftwareInfo{ID: m.ID.String(), FileName: m.FileName, FileSize: m.FileSize, Vendor: m.Vendor, Version: m.Version}
}

// payloadOf strips the binary frame header and checksum.
func payloadOf(frame []byte) []byte {
	p, _, err := wire.SplitBinaryFrame(frame)
	if err != nil {
		return nil
	}
	return p
}
