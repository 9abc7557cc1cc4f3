package main

import (
	"context"
	"net"
	"net/http"
	"time"

	"cliquelect/internal/service"
)

// daemon is one in-process electd: service.New's handler served on a
// loopback listener, as cmd/electd serves it.
type daemon struct {
	srv     *service.Server
	httpSrv *http.Server
	served  chan error
	base    string
}

// startDaemon listens on a free loopback port; cfg.Instance defaults to
// the bound address, as in cmd/electd.
func startDaemon(cfg service.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if cfg.Instance == "" {
		cfg.Instance = ln.Addr().String()
	}
	d := &daemon{srv: service.New(cfg), served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	d.httpSrv = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.httpSrv.Serve(ln) }()
	return d, nil
}

// close stops the listener, waits for in-flight requests and drains the
// worker pool.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.httpSrv.Shutdown(ctx) // a stuck connection only delays exit
	<-d.served
	d.srv.Close()
}
