//! The load generator's two connections to the daemon.
//!
//! Connection 0 carries ingest; connection 1 carries control verbs,
//! subscriptions and one-shot queries. The calling thread only writes;
//! one pump thread waits on both sockets with `poll(2)` and forwards
//! every decoded reply, stamped with its arrival time, over a channel.
//! So the generator runs on two threads and a send never waits for a
//! reply.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use minipoll::{Interest, Poller};
use ter_serve::wire::{decode_reply, read_message, write_message};
use ter_serve::Reply;

pub const INGEST: usize = 0;
pub const CONTROL: usize = 1;

/// One event from the pump.
pub enum Ev {
    Reply {
        conn: usize,
        at: Instant,
        reply: Reply,
    },
    Closed {
        conn: usize,
        why: String,
    },
}

pub struct Session {
    conns: [TcpStream; 2],
    rx: Receiver<Ev>,
    stop: Arc<AtomicBool>,
    pump: Option<JoinHandle<()>>,
}

impl Session {
    pub fn open(addr: SocketAddr) -> Result<Session, String> {
        let dial = || -> Result<TcpStream, String> {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            Ok(s)
        };
        let conns = [dial()?, dial()?];
        let readers = [
            conns[0].try_clone().map_err(|e| format!("clone: {e}"))?,
            conns[1].try_clone().map_err(|e| format!("clone: {e}"))?,
        ];
        let (tx, rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_pump = Arc::clone(&stop);
        let pump = std::thread::spawn(move || pump(readers, tx, stop_pump));
        Ok(Session {
            conns,
            rx,
            stop,
            pump: Some(pump),
        })
    }

    /// Writes one framed request payload.
    pub fn send(&mut self, conn: usize, payload: &[u8]) -> Result<(), String> {
        write_message(&mut self.conns[conn], payload).map_err(|e| format!("send: {e}"))
    }

    /// The next event, waiting at most `timeout`.
    pub fn recv(&self, timeout: Duration) -> Result<Option<Ev>, String> {
        match self.rx.recv_timeout(timeout) {
            Ok(ev) => Ok(Some(ev)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err("reply pump stopped".into()),
        }
    }

    /// Stops the pump and closes both connections.
    pub fn close(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for c in &self.conns {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn pump(mut readers: [TcpStream; 2], tx: mpsc::Sender<Ev>, stop: Arc<AtomicBool>) {
    use std::os::unix::io::AsRawFd;
    let mut poller = Poller::new();
    for (i, r) in readers.iter().enumerate() {
        poller.register(r.as_raw_fd(), i as u64, Interest::READABLE);
    }
    let mut events = Vec::new();
    while !stop.load(Ordering::Relaxed) && !poller.is_empty() {
        if poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .is_err()
        {
            continue;
        }
        for ev in &events {
            let conn = ev.token as usize;
            if !(ev.readable || ev.closed) {
                continue;
            }
            let msg = read_message(&mut readers[conn])
                .map_err(|e| e.to_string())
                .and_then(|p| decode_reply(&p).map_err(|e| e.to_string()));
            let at = Instant::now();
            let out = match msg {
                Ok(reply) => Ev::Reply { conn, at, reply },
                Err(why) => {
                    poller.deregister(conn as u64);
                    Ev::Closed { conn, why }
                }
            };
            if tx.send(out).is_err() {
                return;
            }
        }
    }
}
