package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/serve"
	"repro/internal/synth"
)

// serverSynth is nocd's default synthesis configuration: degree 5, 4
// processors per switch, seed 1, Restarts=4, GOMAXPROCS workers. The offline
// flow uses it too, so offline and served designs are the same bytes.
var serverSynth = synth.Options{
	Constraints: synth.Constraints{MaxDegree: 5, MaxProcsPerSwitch: 4},
	Seed:        1,
	Restarts:    4,
}

// patRef names one generated pattern: a NAS benchmark or a collective at a
// processor count, with an iteration (repeat) override when iters > 0.
type patRef struct {
	bench string
	procs int
	iters int
}

func (r patRef) String() string {
	s := r.bench + "-" + strconv.Itoa(r.procs)
	if r.iters > 0 {
		s += "-i" + strconv.Itoa(r.iters)
	}
	return s
}

func (r patRef) isNAS() bool { return slices.Contains(nas.Names(), r.bench) }

// generate builds the pattern the way nocd does for a by-name request,
// under a nas.generate or collective.generate span.
func (r patRef) generate(tr *tracer, id int64, parent int) (*model.Pattern, error) {
	if r.isNAS() {
		sp := tr.begin(id, parent, "nas.generate")
		defer tr.end(sp)
		return nas.Generate(r.bench, r.procs, nas.Config{Iterations: r.iters})
	}
	sp := tr.begin(id, parent, "collective.generate")
	defer tr.end(sp)
	return collective.Generate(r.bench, r.procs, collective.Config{Repeats: r.iters})
}

// liveServer is one nocd instance behind an in-process loopback listener,
// at nocd defaults with a disk store over a fresh directory.
type liveServer struct {
	srv    *serve.Server
	base   string
	dir    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// startServer builds a server over a new data directory under root. wrap,
// when set, wraps the client transport (the self-test corrupts bodies
// through it).
func startServer(root string, wrap func(http.RoundTripper) http.RoundTripper) (*liveServer, error) {
	dir, err := os.MkdirTemp(root, "nocd-data-")
	if err != nil {
		return nil, fmt.Errorf("creating data dir: %w", err)
	}
	srv, err := serve.New(serve.Config{DataDir: dir, MaxInFlight: 2, Synth: serverSynth})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if wrap != nil {
		rt = wrap(rt)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{srv: srv, base: "http://" + ln.Addr().String(), dir: dir,
		client: &http.Client{Transport: rt}, cancel: cancel, done: make(chan error, 1)}
	go func() { ls.done <- serve.Serve(ctx, srv, ln, 10*time.Second) }()
	return ls, nil
}

// stop drains the server, waits for it to exit, and removes its data.
func (ls *liveServer) stop() error {
	if ls == nil {
		return nil
	}
	ls.cancel()
	err := <-ls.done
	ls.client.CloseIdleConnections()
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if rerr := os.RemoveAll(ls.dir); err == nil {
		err = rerr
	}
	return err
}

type reply struct {
	status int
	cache  string
	warm   string
	key    string
	body   []byte
}

func (ls *liveServer) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ls.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("reading response: %w", err)
	}
	r := reply{status: resp.StatusCode, cache: resp.Header.Get("X-Nocd-Cache"),
		warm: resp.Header.Get("X-Nocd-Warm"), key: resp.Header.Get("X-Nocd-Pattern-Hash"), body: b}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("%s %s: status %d: %s", method, path, r.status, strings.TrimSpace(string(b)))
	}
	return r, nil
}

func (ls *liveServer) post(body []byte) (reply, error) {
	return ls.do(http.MethodPost, "/v1/design", body)
}

func (ls *liveServer) get(key string) (reply, error) {
	return ls.do(http.MethodGet, "/v1/design/"+key, nil)
}

// counters snapshots the server-lifetime counters the per-layer metrics use.
func (ls *liveServer) counters() map[string]int64 { return ls.srv.Metrics().Counters() }
