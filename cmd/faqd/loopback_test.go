package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/faqs"
	"repro/internal/obs/obstest"
)

// loopbackTemplates are the mixed-workload query shapes: a long path, a
// symmetric star, a balanced binary tree, and a cyclic triangle with a
// pendant edge.
var loopbackTemplates = []struct{ name, spec, free string }{
	{"path7", "A0,A1;A1,A2;A2,A3;A3,A4;A4,A5;A5,A6;A6,A7", "A0"},
	{"star6", "C,B1;C,B2;C,B3;C,B4;C,B5;C,B6", "C"},
	{"tree6", "R,L;R,T;L,LL;L,LR;T,TL;T,TR", "R"},
	{"tri-pendant", "A,B;B,C;A,C;C,D", "C"},
}

// wireTemplate instantiates a template as a count request with its
// variables renamed by prefix; the data depends only on seed and shape.
func wireTemplate(spec, free, prefix string, seed int64, n, dom int) *faqs.WireRequest {
	r := rand.New(rand.NewSource(seed))
	wr := &faqs.WireRequest{Semiring: "count", Free: []string{prefix + free}, Dom: dom}
	for _, edge := range strings.Split(spec, ";") {
		var names []string
		for _, v := range strings.Split(edge, ",") {
			names = append(names, prefix+v)
		}
		tuples := make([][]int, n)
		for i := range tuples {
			tuples[i] = make([]int, len(names))
			for j := range tuples[i] {
				tuples[i][j] = r.Intn(dom)
			}
		}
		wr.Edges = append(wr.Edges, names)
		wr.Factors = append(wr.Factors, faqs.WireFactor{Tuples: tuples})
	}
	return wr
}

// scrapeURL GETs /metrics over the socket and strict-parses it.
func scrapeURL(t *testing.T, c *http.Client, base string) *obstest.Scrape {
	t.Helper()
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	sc, err := obstest.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	return sc
}

// TestDaemonOverLoopback drives the daemon's real handler over a real
// socket with a three-worker fleet behind it: every /solve answer must
// be bit-identical to a local engine's, renamed repeats of a shape must
// hit the plan cache, and /metrics must show the requests and the
// cluster traffic they caused.
func TestDaemonOverLoopback(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		w, err := faqs.ServeWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs = append(addrs, w.Addr())
	}
	srv := newServer(faqs.WithPlanCache(64), faqs.WithClusterWorkers(addrs...))
	t.Cleanup(func() { srv.engine.Close() })
	ctx := context.Background()
	if err := srv.engine.PingCluster(ctx); err != nil {
		t.Fatalf("cluster handshake: %v", err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	client := ts.Client()
	local := faqs.NewEngine()
	t.Cleanup(func() { local.Close() })

	clusterLabel := map[string]string{"protocol": "cluster"}
	before := scrapeURL(t, client, ts.URL)
	bytesBefore, _ := before.Value("faq_protocol_bytes_total", clusterLabel)
	roundsBefore, _ := before.Value("faq_protocol_rounds_total", clusterLabel)

	solves := 0
	for pass, prefix := range []string{"x_", "renamed_"} {
		for i, tpl := range loopbackTemplates {
			wr := wireTemplate(tpl.spec, tpl.free, prefix, int64(100+i), 48, 6)
			want, err := local.SolveWire(ctx, wr)
			if err != nil || len(want.Tuples) == 0 {
				t.Fatalf("%s local: %d rows, err %v", tpl.name, len(want.Tuples), err)
			}
			body, err := json.Marshal(wr)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var got faqs.WireAnswer
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("%s/%s: status %d, decode %v", prefix, tpl.name, resp.StatusCode, err)
			}
			if !reflect.DeepEqual(got.Schema, want.Schema) ||
				!reflect.DeepEqual(got.Tuples, want.Tuples) ||
				!reflect.DeepEqual(got.Values, want.Values) {
				t.Fatalf("%s/%s: daemon answer differs from the local engine", prefix, tpl.name)
			}
			if hit := resp.Header.Get("X-Faqs-Plan-Cache") == "hit"; hit != (pass == 1) {
				t.Errorf("%s/%s: plan cache hit = %v on pass %d", prefix, tpl.name, hit, pass)
			}
			solves++
		}
	}

	if st, ok := srv.engine.ClusterStats(); !ok || st.Solves != int64(solves) {
		t.Fatalf("cluster served %+v, want %d solves", st, solves)
	}
	after := scrapeURL(t, client, ts.URL)
	if v, _ := after.Value("faqd_http_requests_total", map[string]string{"path": "/solve", "code": "200"}); v != float64(solves) {
		t.Errorf(`faqd_http_requests_total{path="/solve",code="200"} = %v, want %d`, v, solves)
	}
	if v, _ := after.Value("faq_protocol_bytes_total", clusterLabel); v <= bytesBefore {
		t.Errorf("cluster bytes did not advance: %v then %v", bytesBefore, v)
	}
	if v, _ := after.Value("faq_protocol_rounds_total", clusterLabel); v <= roundsBefore {
		t.Errorf("cluster rounds did not advance: %v then %v", roundsBefore, v)
	}
}
