//! The server: listener, per-connection reader/writer threads, and the
//! glue between them and the ingest thread.
//!
//! Thread model (for `N` connected clients):
//!
//! ```text
//!  accept thread ──spawns──▶ N reader threads ──Command──▶ bounded queue
//!                            N writer threads ◀─frames── per-client Outbox
//!                                                              ▲
//!                     1 ingest thread (owns Rumor + Session) ──┘
//! ```
//!
//! Readers *only* decode and enqueue; writers *only* dequeue and send.
//! All engine work happens on the single ingest thread, so the shared
//! plan needs no locking at all.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam_channel::{bounded, Sender};
use rumor_engine::{Rumor, SessionConfig};
use rumor_types::{Result, RumorError};

use crate::drain::Lifecycle;
use crate::frame;
use crate::ingest::{Command, Ingest};
use crate::outbox::Outbox;
use crate::proto::Request;

/// Tuning for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Backend for the one shared session (single-threaded by default;
    /// see [`SessionConfig`] for the parallel engines).
    pub session: SessionConfig,
    /// Capacity of the shared command queue. Readers block sending into
    /// it when full — this is the admission-control bound: a client that
    /// outruns the engine stalls its own connection, nothing else.
    pub command_queue_depth: usize,
    /// Per-client outbox bound, in result frames. A client further
    /// behind than this has its oldest queued results shed (reported via
    /// `SHED`); control frames are exempt. See [`crate::outbox`].
    pub outbox_capacity: usize,
    /// Socket write timeout for writer threads; bounds how long a
    /// graceful drain can hang on a client that stopped reading.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            session: SessionConfig::default(),
            command_queue_depth: 1024,
            outbox_capacity: 8192,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A running RUMOR server: one engine, one session, many clients.
///
/// Created with [`Server::spawn`] (loopback, ephemeral port — the usual
/// test/bench entry point) or [`Server::bind`]. Dropping the handle
/// performs the same graceful drain as [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    cmd_tx: Sender<Command>,
    lifecycle: Lifecycle,
    accept: Option<thread::JoinHandle<()>>,
    ingest: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:0` and serves `engine`'s registered queries.
    pub fn spawn(engine: Rumor, config: ServerConfig) -> Result<Server> {
        Server::bind("127.0.0.1:0", engine, config)
    }

    /// Binds an explicit address. The engine is optimized (if it was not
    /// already) and the shared session is built on the ingest thread
    /// before this returns, so a `Server` handle is always ready to
    /// serve.
    pub fn bind(addr: impl ToSocketAddrs, engine: Rumor, config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (cmd_tx, cmd_rx) = bounded(config.command_queue_depth.max(1));

        // Build engine + session on the ingest thread itself; surface
        // construction errors synchronously through a one-shot channel.
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let session_cfg = config.session.clone();
        let ingest = thread::Builder::new()
            .name("rumor-ingest".into())
            .spawn(move || match Ingest::new(engine, session_cfg) {
                Ok(ingest) => {
                    let _ = ready_tx.send(Ok(()));
                    ingest.run(cmd_rx);
                }
                Err(e) => {
                    let _ = ready_tx.send(Err(e));
                }
            })
            .map_err(|e| RumorError::io(format!("failed to spawn ingest thread: {e}")))?;
        match ready_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                let _ = ingest.join();
                return Err(e);
            }
            Err(_) => {
                let _ = ingest.join();
                return Err(RumorError::io("ingest thread died during startup"));
            }
        }

        let lifecycle = Lifecycle::new();
        let accept_tx = cmd_tx.clone();
        let accept_lc = lifecycle.clone();
        let accept_cfg = config.clone();
        let accept = thread::Builder::new()
            .name("rumor-accept".into())
            .spawn(move || accept_loop(listener, accept_tx, accept_lc, accept_cfg))
            .map_err(|e| RumorError::io(format!("failed to spawn accept thread: {e}")))?;

        Ok(Server {
            addr: local,
            cmd_tx,
            lifecycle,
            accept: Some(accept),
            ingest: Some(ingest),
        })
    }

    /// The bound address (useful with the ephemeral port of
    /// [`Server::spawn`]).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, let queued commands finish, flush
    /// the session, deliver every buffered result, say `GOODBYE`, close.
    /// See [`crate::drain`] for the step-by-step protocol.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        if self.accept.is_none() && self.ingest.is_none() {
            return Ok(());
        }
        self.lifecycle.request_stop(self.addr);
        if let Some(h) = self.accept.take() {
            h.join()
                .map_err(|_| RumorError::io("accept thread panicked"))?;
        }
        self.lifecycle.close_readers();
        let _ = self.cmd_tx.send(Command::Shutdown);
        if let Some(h) = self.ingest.take() {
            h.join()
                .map_err(|_| RumorError::io("ingest thread panicked"))?;
        }
        self.lifecycle.join_workers();
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: Sender<Command>,
    lifecycle: Lifecycle,
    cfg: ServerConfig,
) {
    let mut next_client: u64 = 1;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if lifecycle.stopping() {
                    return;
                }
                continue;
            }
        };
        if lifecycle.stopping() {
            // The wake-up self-connection (or a late arrival): drop it.
            return;
        }
        let client = next_client;
        next_client += 1;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(cfg.write_timeout);
        let write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let outbox = Outbox::new(cfg.outbox_capacity);
        if tx
            .send(Command::Connect {
                client,
                outbox: outbox.clone(),
            })
            .is_err()
        {
            return; // ingest gone; nothing left to serve
        }
        let writer_tx = tx.clone();
        if let Ok(h) = thread::Builder::new()
            .name(format!("rumor-writer-{client}"))
            .spawn(move || writer_loop(client, write_half, outbox, writer_tx))
        {
            lifecycle.adopt(h);
        }
        let stream = Arc::new(stream);
        let watch = Arc::downgrade(&stream);
        let reader_tx = tx.clone();
        let reader_lc = lifecycle.clone();
        if let Ok(h) = thread::Builder::new()
            .name(format!("rumor-reader-{client}"))
            .spawn(move || reader_loop(client, stream, reader_tx, reader_lc))
        {
            lifecycle.adopt_reader(watch, h);
        }
    }
}

/// Decodes frames into commands. The blocking `send` on the bounded
/// command queue is where a too-fast client stalls (admission control).
fn reader_loop(client: u64, stream: Arc<TcpStream>, tx: Sender<Command>, lifecycle: Lifecycle) {
    let mut reader = BufReader::new(&*stream);
    loop {
        match frame::read_frame(&mut reader) {
            Ok(Some(payload)) => match Request::decode(&payload) {
                Ok(req) => {
                    let bye = matches!(req, Request::Bye);
                    if tx.send(Command::Request { client, req }).is_err() {
                        return;
                    }
                    if bye {
                        // Nothing valid can follow BYE; leave the socket
                        // to the writer, which closes it after GOODBYE.
                        return;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Command::Malformed {
                        client,
                        message: e.to_string(),
                    });
                    return;
                }
            },
            Ok(None) => {
                // During a drain the end-of-stream is the server's own
                // read shutdown: the client is still owed its results.
                if !lifecycle.stopping() {
                    let _ = tx.send(Command::Disconnect { client });
                }
                return;
            }
            Err(e) => {
                // Oversized prefix, truncated frame, or transport error:
                // answer with ERROR (best effort) and drop the client.
                let _ = tx.send(Command::Malformed {
                    client,
                    message: e.to_string(),
                });
                return;
            }
        }
    }
}

/// Drains one client's outbox to its socket. Exits when the outbox is
/// closed and empty (normal teardown) or on a write failure (dead or
/// timed-out peer).
fn writer_loop(client: u64, stream: TcpStream, outbox: Outbox, tx: Sender<Command>) {
    let mut w = BufWriter::new(stream);
    while let Some(frame_bytes) = outbox.pop_blocking() {
        let wrote = frame::write_frame(&mut w, &frame_bytes)
            .and_then(|()| w.flush().map_err(RumorError::from));
        if wrote.is_err() {
            outbox.close();
            // Discard whatever is still queued so the close is prompt.
            while outbox.pop_blocking().is_some() {}
            let _ = tx.send(Command::Disconnect { client });
            break;
        }
    }
    let _ = w.flush();
    let _ = w.get_ref().shutdown(Shutdown::Both);
}
