package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/rsm"
)

// servedName is the model every predict and yield op reads.
const servedName = "served"

// stack is one in-process rsmd: a durable registry and job journal under
// dir, the server with rsmd's default Config on a loopback listener, and
// an rsm.Client whose transport opens at most nproc connections.
type stack struct {
	reg    *registry.Registry
	srv    *server.Server
	hs     *http.Server
	served chan error // Serve's return value
	url    string
	hc     *http.Client
	client *rsm.Client
}

// discardLogger logs at rsmd's default level, so the server formats every
// record it would in production, and drops the output.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

func openStack(dir string, nproc int) (*stack, error) {
	logger := discardLogger()
	reg, err := registry.OpenWith(filepath.Join(dir, "store"), logger)
	if err != nil {
		return nil, fmt.Errorf("open registry: %w", err)
	}
	srv, err := server.New(reg, server.Config{JournalDir: filepath.Join(dir, "journal"), Logger: logger})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{
		reg:    reg,
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		IdleConnTimeout:     time.Minute,
	}}
	// One attempt per request: a refusal must count as a miss, not be
	// retried away.
	s.client = &rsm.Client{BaseURL: s.url, HTTP: s.hc, Retry: rsm.RetryPolicy{MaxAttempts: 1}}
	return s, nil
}

// close stops the listener, waits for Serve to return, drains the fit
// workers and closes the journal.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.hc.CloseIdleConnections()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}
