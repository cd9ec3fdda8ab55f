//! Shutdown coordination: how a running server stops without losing
//! buffered results.
//!
//! The drain protocol, in order:
//!
//! 1. `Lifecycle::request_stop` flips the stop flag, then dials the
//!    server's own listening address once. The accept loop blocks in
//!    `TcpListener::accept`; the self-connection wakes it, it observes
//!    the flag and exits without handing the connection to a reader —
//!    **no new clients are admitted from this point**.
//! 2. `Lifecycle::close_readers` shuts the read half of every live
//!    connection. Each reader still forwards the frames already received
//!    in its socket, then sees end-of-stream and exits *without* sending
//!    `Command::Disconnect` (the client is still connected and owed its
//!    results). Once every reader has been joined, the server sends
//!    `Command::Shutdown` down the (still live) command queue. Every
//!    command a client sent before the shutdown — pushes, registers,
//!    flushes — is therefore queued ahead of it and processed first:
//!    shutdown does not jump the admission queue, not even for frames
//!    still unread in a socket when the shutdown began.
//! 3. The ingest thread runs its drain: a `flush` barrier, a final
//!    subscription delivery, `finish`, one more delivery, then a
//!    `GOODBYE` frame and an outbox close per client
//!    ([`crate::ingest`]).
//! 4. Each writer thread drains its outbox to the socket — every
//!    buffered `RESULTS` frame is written before the `GOODBYE` — then
//!    shuts the socket down.
//! 5. `Lifecycle::join_workers` joins every writer thread.
//!
//! The result: a client that connects, pushes, and then sees the server
//! shut down still receives every result the engine produced for it,
//! finished off by a `GOODBYE`, and then a clean EOF.

use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// A reader thread and a weak handle to the socket it reads. The reader
/// owns the only strong reference, so a finished reader's handle closes
/// as it exits instead of staying open in the registry.
type Reader = (Weak<TcpStream>, JoinHandle<()>);

/// Shared stop flag plus the registry of per-connection threads.
#[derive(Clone)]
pub(crate) struct Lifecycle {
    stop: Arc<AtomicBool>,
    readers: Arc<Mutex<Vec<Reader>>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Lifecycle {
    pub(crate) fn new() -> Self {
        Lifecycle {
            stop: Arc::new(AtomicBool::new(false)),
            readers: Arc::new(Mutex::new(Vec::new())),
            workers: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Step 1 of the drain: stop admitting and wake the accept loop.
    pub(crate) fn request_stop(&self, addr: SocketAddr) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept; the connection is discarded on sight.
        if let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
            drop(stream);
        }
    }

    /// Registers a reader thread and the socket it reads, for step 2.
    pub(crate) fn adopt_reader(&self, stream: Weak<TcpStream>, handle: JoinHandle<()>) {
        self.readers.lock().unwrap().push((stream, handle));
    }

    /// Registers a writer thread for the final join.
    pub(crate) fn adopt(&self, handle: JoinHandle<()>) {
        self.workers.lock().unwrap().push(handle);
    }

    /// Step 2 of the drain, before `Command::Shutdown` is queued: end
    /// every reader after it has forwarded the frames already received.
    /// Shutting the read half makes a blocked read return the buffered
    /// bytes and then end-of-stream.
    pub(crate) fn close_readers(&self) {
        let readers: Vec<_> = self.readers.lock().unwrap().drain(..).collect();
        for (stream, _) in &readers {
            if let Some(stream) = stream.upgrade() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for (_, h) in readers {
            let _ = h.join();
        }
    }

    /// Step 5 of the drain: wait for every writer thread.
    pub(crate) fn join_workers(&self) {
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}
