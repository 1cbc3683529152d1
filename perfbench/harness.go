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
	"os"
	"sync"
	"time"
)

// closers releases what a run acquired, last acquired first. Every
// listener, server, engine, WAL manager and temp dir is pushed here the
// moment it exists, so every exit path — success, failed check, panic,
// signal — releases it by calling closeAll once.
type closers struct {
	mu  sync.Mutex
	fns []func()
}

func (c *closers) push(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

func (c *closers) closeAll() {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// shutdownGrace bounds how long closing a server waits for in-flight
// handlers (a cluster discover can take seconds) before cutting them.
const shutdownGrace = 30 * time.Second

// serve starts h on a fresh loopback listener and returns its base URL.
// The server is shut down, and its Serve goroutine waited for, by c.
func serve(c *closers, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always ErrServerClosed once c closes it
	}()
	c.push(func() {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// makeTempDir creates a directory under root that c removes.
func makeTempDir(c *closers, root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, pattern)
	if err != nil {
		return "", err
	}
	c.push(func() { os.RemoveAll(dir) })
	return dir, nil
}

// newHTTPClient is one closed-loop client: a single keep-alive
// connection, no compression.
func newHTTPClient(c *closers) *http.Client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	c.push(tr.CloseIdleConnections)
	return &http.Client{Transport: tr, Timeout: 5 * time.Minute}
}

// errStatus reports a non-2xx reply.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and returns the whole reply body. body may be
// nil (GET), pre-encoded JSON ([]byte) or any JSON-encodable value.
func do(ctx context.Context, hc *http.Client, method, url string, body any, buf *bytes.Buffer) ([]byte, error) {
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		enc, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg := buf.String()
		if len(msg) > 300 {
			msg = msg[:300]
		}
		return nil, &errStatus{code: resp.StatusCode, body: msg}
	}
	return buf.Bytes(), nil
}

// call is do plus JSON decoding of the reply into out (when non-nil).
func call(ctx context.Context, hc *http.Client, method, url string, body, out any) error {
	b, err := do(ctx, hc, method, url, body, nil)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
		}
	}
	return nil
}

// errInterrupted reports a run stopped by a signal.
var errInterrupted = errors.New("interrupted")
