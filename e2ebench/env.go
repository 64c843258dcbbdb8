package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/db"
	"repro/internal/bench"
	"repro/internal/server"
)

// env is one set-up database served over loopback TCP.
type env struct {
	sc        bench.Scale
	dir       string // WAL directory; "" for an in-memory database
	d         *db.DB
	srv       *server.Server
	serveDone chan error
	addr      string
	conns     []*client.Conn
	terms     []*terminal
	nextHist  atomic.Int64 // history keys handed out
}

// setupOpts says how to build an env.
type setupOpts struct {
	sc    bench.Scale
	seed  int64
	dir   string // durable when non-empty
	conns int
	// parallelism is db.Options.Parallelism (0: GOMAXPROCS).
	parallelism int
	// warm runs on the served env before the set-up clock stops
	// (preparing statements, first executions).
	warm func(e *env) error
	// beforeMerge runs on the loaded, unmerged database; its time is
	// excluded from the set-up time.
	beforeMerge func(d *db.DB) error
}

// setup opens the database, loads the CH data, merges every table,
// starts the server, dials the client connections and warms them. It
// returns the env and the set-up time.
func setup(o setupOpts) (*env, time.Duration, error) {
	start := time.Now()
	var excluded time.Duration
	d, err := db.Open(db.Options{Dir: o.dir, Parallelism: o.parallelism})
	if err != nil {
		return nil, 0, err
	}
	e := &env{sc: o.sc, dir: o.dir, d: d}
	fail := func(err error) (*env, time.Duration, error) {
		return nil, 0, errors.Join(err, e.close())
	}
	eng := d.Engine()
	if err := bench.CreateTables(eng); err != nil {
		return fail(err)
	}
	if err := bench.Load(eng, o.sc, o.seed); err != nil {
		return fail(err)
	}
	if o.beforeMerge != nil {
		t := time.Now()
		if err := o.beforeMerge(d); err != nil {
			return fail(err)
		}
		excluded += time.Since(t)
	}
	if err := mergeAll(d); err != nil {
		return fail(err)
	}
	if err := e.serve(); err != nil {
		return fail(err)
	}
	for range o.conns {
		c, err := e.dial()
		if err != nil {
			return fail(err)
		}
		e.conns = append(e.conns, c)
	}
	if o.warm != nil {
		if err := o.warm(e); err != nil {
			return fail(err)
		}
	}
	return e, time.Since(start) - excluded, nil
}

// mergeAll moves every table's delta into the column store.
func mergeAll(d *db.DB) error {
	eng := d.Engine()
	for _, name := range eng.Tables() {
		if _, err := eng.Merge(name); err != nil {
			return err
		}
	}
	return nil
}

// serve starts an in-process server on a loopback port.
func (e *env) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = server.New(e.d, server.Config{})
	e.addr = ln.Addr().String()
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(context.Background(), ln) }()
	return nil
}

func (e *env) dial() (*client.Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return client.Dial(ctx, e.addr)
}

// stopServer closes the connections and drains the server.
func (e *env) stopServer() error {
	var errs []error
	for _, c := range e.conns {
		errs = append(errs, c.Close())
	}
	e.conns = nil
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, e.srv.Shutdown(ctx))
		cancel()
		if err := <-e.serveDone; err != nil && !errors.Is(err, server.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.srv = nil
	}
	return errors.Join(errs...)
}

// close stops the server, closes the database and removes its files.
func (e *env) close() error {
	err := e.stopServer()
	if e.d != nil {
		err = errors.Join(err, e.d.Close())
		e.d = nil
	}
	if e.dir != "" {
		err = errors.Join(err, os.RemoveAll(e.dir))
	}
	return err
}

// liveRows sums the live row estimate over every table.
func liveRows(d *db.DB) (int, error) {
	eng := d.Engine()
	n := 0
	for _, name := range eng.Tables() {
		t, err := eng.Table(name)
		if err != nil {
			return 0, fmt.Errorf("table %s: %w", name, err)
		}
		n += t.TableStats().Rows
	}
	return n, nil
}
