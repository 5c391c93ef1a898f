package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/drift"
	"repro/internal/service"
)

// node is one in-process dpcd instance serving on loopback.
type node struct {
	name string
	base string
	svc  *service.Service
	srv  *http.Server
	done chan struct{}
}

// defaultDrift is dpcd's default drift policy (tracking on, the flag
// defaults of cmd/dpcd).
func defaultDrift() *drift.Config {
	return &drift.Config{ScoreThreshold: 0.25, HaloThreshold: 0.5}
}

func listen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// serve starts h on ln and returns the running node.
func serve(name string, ln net.Listener, svc *service.Service, h http.Handler, tr *tracer) *node {
	n := &node{
		name: name,
		base: "http://" + ln.Addr().String(),
		svc:  svc,
		srv:  &http.Server{Handler: tr.middleware(name, h), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		if err := n.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: node %s: %v\n", name, err)
		}
	}()
	return n
}

// close stops the server and waits for its serve loop to end.
func (n *node) close() {
	_ = n.srv.Close() // Close never fails on a server that is serving
	<-n.done
}

// bootSingle starts one dpcd instance with the given options.
func bootSingle(opts service.Options, tr *tracer) (*node, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	svc := service.New(opts)
	return serve("n0", ln, svc, service.NewHandler(svc), tr), nil
}

// bootRing starts k dpcd instances forming one ring with replication
// factor rf. opts is shared; Owns is set per instance.
func bootRing(k, rf int, opts service.Options, tr *tracer) ([]*node, []string, error) {
	lns := make([]net.Listener, k)
	peers := make([]string, k)
	for i := range lns {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*node, 0, k)
	fail := func(err error) ([]*node, []string, error) {
		for _, n := range nodes {
			n.close()
		}
		for _, l := range lns[len(nodes):] {
			l.Close()
		}
		return nil, nil, err
	}
	for i, ln := range lns {
		o := opts
		owns, err := service.OwnsFunc(peers[i], peers, 0, rf)
		if err != nil {
			return fail(err)
		}
		o.Owns = owns
		svc := service.New(o)
		rt, err := service.NewRouter(svc, peers[i], peers, service.RouterOptions{RF: rf})
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, serve(fmt.Sprintf("n%d", i), ln, svc, rt.Handler(), tr))
	}
	return nodes, peers, nil
}
