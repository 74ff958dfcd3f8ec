package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"dnnparallel/internal/serve"
)

// server is an in-process dnnserve on a loopback listener. reset swaps
// in a fresh serve.Server (empty cache, zeroed counters) behind the same
// listener, so client connections survive while the cache goes cold.
type server struct {
	cur  atomic.Pointer[serve.Server]
	srv  *http.Server
	url  string
	done chan error
}

// startServer listens on an ephemeral loopback port and serves until
// stop. search.workers is left to the planner's GOMAXPROCS default.
func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.reset()
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.cur.Load().Handler().ServeHTTP(w, r)
	})}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) reset() { s.cur.Store(serve.New(serve.Config{})) }

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is one closed-loop caller: it sends a request only after the
// previous response's last byte has arrived.
type client struct {
	hc  *http.Client
	url string
}

// newClient returns a client holding at most one connection.
func newClient(s *server) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, url: s.url}
}

// response is what the client saw for one request.
type response struct {
	Status      int
	ContentType string
	Cache       string // X-Cache
	Body        []byte
	Seconds     float64 // send → last byte of the body
	Err         error
}

// plan POSTs one scenario body to /v1/plan and reads the whole response.
func (c *client) plan(body []byte) response {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		return response{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{Err: err, Seconds: time.Since(start).Seconds()}
	}
	data, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start).Seconds()
	resp.Body.Close()
	return response{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Cache:       resp.Header.Get("X-Cache"),
		Body:        data,
		Seconds:     elapsed,
		Err:         err,
	}
}

// cacheStats reads the server's cache counters from /healthz.
func (c *client) cacheStats() (serve.CacheStats, error) {
	resp, err := c.hc.Get(c.url + "/healthz")
	if err != nil {
		return serve.CacheStats{}, err
	}
	defer resp.Body.Close()
	var h struct {
		Status string           `json:"status"`
		Cache  serve.CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return serve.CacheStats{}, fmt.Errorf("decoding /healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		return serve.CacheStats{}, fmt.Errorf("/healthz: status %d %q", resp.StatusCode, h.Status)
	}
	return h.Cache, nil
}
