//! The daemon front door: bind, spawn, accept, shut down.

use crate::registry::Shared;
use crate::{session, ServeConfig};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A bound (but not yet running) daemon.  [`Server::start`] spawns the
/// worker pool and the accept loop and hands back a [`ServerHandle`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listening socket and opens the result cache (if any).
    /// Use port 0 to let the OS pick — [`Server::local_addr`] reports the
    /// choice.
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared::new(&config)?);
        Ok(Server { listener, shared })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the worker pool and the accept loop; sessions get a thread
    /// each as connections arrive.
    pub fn start(self) -> ServerHandle {
        let addr = self
            .listener
            .local_addr()
            .expect("bound listener has an address");
        let mut workers = Vec::with_capacity(self.shared.pool.workers());
        for w in 0..self.shared.pool.workers() {
            let shared = self.shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || shared.pool.work(w, shared.cache.as_ref()))
                    .expect("spawn worker thread"),
            );
        }
        let shared = self.shared.clone();
        let listener = self.listener;
        let acceptor = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = shared.clone();
                    std::thread::spawn(move || session::handle(stream, &shared));
                }
            })
            .expect("spawn accept thread");
        ServerHandle {
            shared: self.shared,
            addr,
            acceptor,
            workers,
        }
    }
}

/// A running daemon.  Dropping it leaves the threads running (the binary
/// relies on that); call [`ServerHandle::shutdown`] for a clean stop.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs whose session is still running (finished jobs whose `final`
    /// was delivered do not count).  Zero means the pool is idle.
    pub fn active_jobs(&self) -> usize {
        self.shared
            .jobs
            .lock()
            .expect("job table poisoned")
            .running
            .len()
    }

    /// Cancels every live job, stops the workers and the accept loop, and
    /// joins them.  In-flight sessions see their jobs cancelled and exit
    /// on their own.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        let jobs: Vec<_> = self
            .shared
            .jobs
            .lock()
            .expect("job table poisoned")
            .running
            .values()
            .cloned()
            .collect();
        for job in jobs {
            self.shared.cancel(&job);
        }
        self.shared.pool.shutdown();
        // A throwaway connection unblocks the accept loop so it can see
        // the shutdown flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Blocks until the accept loop exits (it never does on its own — this
    /// is the daemon binary's "run forever").
    pub fn join(self) {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}
