package calendar_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestTCPEndToEnd runs the full stack over real TCP sockets — the
// deployment path of the cmd/ binaries — and drives a meeting
// lifecycle through it: transport-agnosticism is a design decision
// (DESIGN.md §5.3) and this is its proof.
func TestTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	net := transport.NewTCP()
	defer net.Close()
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	dirLn, err := net.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer dirLn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cals := map[string]*calendar.Calendar{}
	for _, user := range []string{"phil", "andy", "suzy"} {
		node, err := core.Start(ctx, core.Config{
			User: user, Net: net, DirAddr: dirLn.Addr(),
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close(context.Background())
		c, err := calendar.New(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		cals[user] = c
	}

	if err := cals["andy"].MarkBusy(calendar.Slot{Day: "2003-04-22", Hour: 9}, "x", 0); err != nil {
		t.Fatal(err)
	}
	m, err := cals["phil"].SetupMeeting(ctx, calendar.Request{
		Title: "tcp", FromDay: "2003-04-22", ToDay: "2003-04-22",
		Must: []string{"andy", "suzy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusConfirmed {
		t.Fatalf("status = %s missing=%v", m.Status, m.Missing)
	}
	if m.Slot.Hour == 9 {
		t.Fatal("busy slot chosen over TCP")
	}
	for _, c := range cals {
		if got := c.Slot(m.Slot).Meeting; got != m.ID {
			t.Fatalf("%s slot = %q", c.User(), got)
		}
	}
	if err := cals["phil"].CancelMeeting(ctx, m.ID); err != nil {
		t.Fatal(err)
	}
	for _, c := range cals {
		if got := c.Slot(m.Slot).Meeting; got != "" {
			t.Fatalf("%s slot after cancel = %q", c.User(), got)
		}
	}
}

// TestTCPAuthenticatedService exercises the §5.4 auth path over real
// sockets.
func TestTCPAuthenticatedService(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	net := transport.NewTCP()
	defer net.Close()
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	dirLn, err := net.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer dirLn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	an := auth.NewAuthenticator("tcp-deploy-key")
	an.Table.Add("andy", "pw")
	node, err := core.Start(ctx, core.Config{
		User: "phil", Net: net, DirAddr: dirLn.Addr(),
		ListenAddr: "127.0.0.1:0", Auth: an,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close(context.Background())
	c, err := calendar.New(ctx, node)
	if err != nil {
		t.Fatal(err)
	}
	// Lock down the calendar service.
	obj := c.ServiceObject()
	obj.RequireAuth = true
	if err := node.RegisterService(ctx, calendar.ServiceFor("phil"), obj); err != nil {
		t.Fatal(err)
	}

	caller, err := core.Start(ctx, core.Config{
		User: "andy", Net: net, DirAddr: dirLn.Addr(), ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close(context.Background())

	err = caller.Engine.Invoke(ctx, calendar.ServiceFor("phil"), "ListMeetings", nil, nil)
	if wire.CodeOf(err) != wire.CodeAuth {
		t.Fatalf("unauthenticated call: %v", err)
	}
	if err := caller.Engine.SetCredential(an.Sealer, "andy", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := caller.Engine.Invoke(ctx, calendar.ServiceFor("phil"), "ListMeetings", nil, nil); err != nil {
		t.Fatalf("authenticated call: %v", err)
	}
}
