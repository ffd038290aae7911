package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/serve"
)

// serve-coalesce: serveClients closed-loop clients post requests over
// loopback HTTP to an in-process internal/serve server with the daemon's
// default configuration. Request j of every client uses base matrix
// j mod serveMatrices, so the clients submit the same matrix at the same
// step and the coalescer can fold them into one SolveBatch; b and c drift
// per request.
const (
	serveM        = 16
	serveMatrices = 64
	serveClients  = 2
	serveRequests = 128 // per client, cycled
	// serveDrift bounds the seeded per-element drift: b rises and c falls by
	// up to this much, which keeps the generator's interior primal and dual
	// points strictly feasible, so every request stays feasible and bounded.
	serveDrift = 0.2
)

type serveRequest struct {
	body []byte
	ref  float64
}

// serveInputs builds each client's request list and its references.
func serveInputs(seed int64) ([][]serveRequest, error) {
	r := rand.New(rand.NewSource(seed))
	bases := make([]*lp.Problem, serveMatrices)
	for i := range bases {
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: serveM, Seed: r.Int63()})
		if err != nil {
			return nil, err
		}
		bases[i] = p
	}
	reqs := make([][]serveRequest, serveClients)
	for c := range reqs {
		reqs[c] = make([]serveRequest, serveRequests)
		for j := range reqs[c] {
			base := bases[j%serveMatrices]
			b, cost := base.B.Clone(), base.C.Clone()
			for k := range b {
				b[k] += serveDrift * r.Float64()
			}
			for k := range cost {
				cost[k] -= serveDrift * r.Float64()
			}
			p, err := lp.New(fmt.Sprintf("%s-c%d-r%d", base.Name, c, j), cost, base.A, b)
			if err != nil {
				return nil, err
			}
			var text strings.Builder
			if err := p.WriteText(&text); err != nil {
				return nil, err
			}
			// The reference solves what the server will parse.
			pub, err := memlp.ReadProblem(strings.NewReader(text.String()))
			if err != nil {
				return nil, err
			}
			ref, err := reference(pub)
			if err != nil {
				return nil, fmt.Errorf("client %d request %d: %w", c, j, err)
			}
			body, err := json.Marshal(serve.Request{Problem: text.String(), Engine: "crossbar"})
			if err != nil {
				return nil, err
			}
			reqs[c][j] = serveRequest{body: body, ref: ref}
		}
	}
	return reqs, nil
}

// server is one in-process memlpd: the serve.Server behind a loopback
// listener, and the HTTP client the benchmark's clients share.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	url    string
	client *http.Client
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    serve.New(serve.Config{}),
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
			Timeout:   time.Minute, // a hung server fails the run instead of stalling it
		},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after stop's Shutdown
	}()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // on timeout the listener is closed anyway
	<-s.served
	s.srv.Close()
}

// post sends one /solve request and decodes the response.
func (s *server) post(body []byte) (serve.Response, int, error) {
	resp, err := s.client.Post(s.url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Response{}, 0, err
	}
	defer resp.Body.Close()
	var sr serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return serve.Response{}, resp.StatusCode, fmt.Errorf("decoding response: %w", err)
	}
	return sr, resp.StatusCode, nil
}

// scrape reads the server's /metrics and sums each metric over its labels.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, "{")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// warmUp has every client post its first warmOps requests, concurrently
// with the other clients, so the pool entry is built and coalesced batches
// program the fabric pool.
func (s *server) warmUp(reqs [][]serveRequest) error {
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for c := range reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, rq := range reqs[c][:warmOps] {
				resp, code, err := s.post(rq.body)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("warm-up: HTTP %d: %s", code, resp.Error)
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// served is one request's client-side record.
type served struct {
	input     int // index of the request among every client's requests
	latency   time.Duration
	ok, wrong bool
	iters     int
	hwNS      int64
	hwJ       float64
	relErr    float64
	wallNS    int64
	coalesced bool
	batch     int
}

// serveSession is one serve-coalesce run: set-up, timed phase and, when
// traced, the server's /metrics deltas over the timed phase.
type serveSession struct {
	setup   float64
	ph      *phase
	host    map[string]metric
	ops     []served
	t       tally
	metrics map[string]float64 // /metrics delta; nil when untraced
}

func runServeSession(cfg config, traced bool) (*serveSession, error) {
	reqs, err := serveInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	var s *server
	setup, err := setupMedian(func() error {
		var err error
		if s, err = startServer(); err != nil {
			return err
		}
		return s.warmUp(reqs)
	}, func() { s.stop() })
	if s != nil {
		defer s.stop()
	}
	if err != nil {
		return nil, err
	}
	var before map[string]float64
	if traced {
		if before, err = s.scrape(); err != nil {
			return nil, err
		}
	}

	sess := &serveSession{setup: setup}
	ph := beginPhase()
	perClient := make([][]served, len(reqs))
	var wg sync.WaitGroup
	for c := range reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Every client sends each of its requests at least once.
			for j := warmOps; ph.more(j-warmOps, len(reqs[c]), cfg.seconds); j++ {
				k := j % len(reqs[c])
				rq := reqs[c][k]
				t0 := time.Now()
				resp, code, err := s.post(rq.body)
				t1 := time.Now()
				op := served{input: c*len(reqs[c]) + k, latency: t1.Sub(t0), wallNS: resp.WallNS, coalesced: resp.Coalesced, batch: max(resp.BatchSize, 1)}
				if err == nil && code == http.StatusOK {
					op.ok, op.wrong = check(resp.Status == memlp.StatusOptimal.String(), float64(resp.Objective), rq.ref)
					op.relErr = relErr(float64(resp.Objective), rq.ref)
					op.iters = resp.Iterations
					if hw := resp.Hardware; hw != nil {
						op.hwNS, op.hwJ = hw.LatencyNS, float64(hw.EnergyJoules)
					}
				}
				ph.record(t0, t1, op.ok)
				perClient[c] = append(perClient[c], op)
			}
		}(c)
	}
	wg.Wait()
	sess.host = ph.end()
	sess.ph = ph
	for _, ops := range perClient {
		sess.ops = append(sess.ops, ops...)
	}
	for _, op := range sess.ops {
		sess.t.add(op.input, op.ok, op.wrong)
	}
	if traced {
		after, err := s.scrape()
		if err != nil {
			return nil, err
		}
		sess.metrics = map[string]float64{}
		for k, v := range after {
			sess.metrics[k] = v - before[k]
		}
	}
	return sess, nil
}

func runServe(cfg config) (*result, error) {
	sess, err := runServeSession(cfg, false)
	if err != nil {
		return nil, err
	}
	ms := sess.host
	ms["setup_s"] = metric{sess.setup, "s"}
	var mod modeled
	for _, op := range sess.ops {
		if op.ok {
			mod.add(op.iters, time.Duration(op.hwNS), op.hwJ, op.relErr)
		}
	}
	mod.metrics(ms)
	return sess.t.result(ms), nil
}
