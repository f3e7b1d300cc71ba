//! TCP transport for the broker.
//!
//! Daemon mode's value proposition (§III-A) is that samples leave the
//! node over the *network*, not the shared filesystem. This module gives
//! the broker a real socket path so the end-to-end demo actually crosses
//! TCP: a [`BrokerServer`] wraps a [`Broker`] behind a length-prefixed
//! frame protocol, and [`BrokerClient`] is the node-side connection used
//! by `tacc_statsd`.
//!
//! Frame layout: `u32` big-endian body length, then a 1-byte opcode and
//! the body. Strings are `u16`-length-prefixed UTF-8.

use crate::queue::{Broker, Consumer, Delivery};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tacc_simnode::intern::Sym;

const OP_DECLARE: u8 = 0x01;
const OP_PUBLISH: u8 = 0x02;
const OP_GET: u8 = 0x03;
const OP_ACK: u8 = 0x04;
const RE_OK: u8 = 0x80;
const RE_EMPTY: u8 = 0x81;
const RE_DELIVERY: u8 = 0x82;
const RE_ERR: u8 = 0xFF;

/// Append a `u16`-length-prefixed string. Strings longer than the
/// prefix can carry are a caller bug (queue names and hostnames are
/// short) but must surface as a typed error, not a silently truncated —
/// and therefore corrupt — frame.
fn put_str(buf: &mut BytesMut, s: &str) -> io::Result<()> {
    let len = u16::try_from(s.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "string exceeds u16 prefix"))?;
    buf.put_u16(len);
    buf.put_slice(s.as_bytes());
    Ok(())
}

/// Read a `u16`-length-prefixed string straight off the frame buffer
/// into the intern table — no owned `String` per frame. Queue names and
/// routing keys are a bounded vocabulary (hosts, a handful of queues),
/// which is exactly what interning assumes.
fn get_sym(buf: &mut Bytes) -> io::Result<Sym> {
    if buf.remaining() < 2 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let s = buf.split_to(len);
    let text = std::str::from_utf8(&s).map_err(|_| io::Error::from(io::ErrorKind::InvalidData))?;
    Ok(Sym::new(text))
}

/// How many spare frame buffers each connection keeps. Small: a
/// request/response protocol has at most a frame or two in flight, and
/// anything beyond that is just pinned memory.
const POOL_CAP: usize = 8;

/// Return a frame buffer to `pool` if it can be reclaimed — i.e. the
/// caller held the last handle to its storage — and the pool has room.
fn recycle_into(pool: &mut Vec<BytesMut>, body: Bytes) {
    if pool.len() < POOL_CAP {
        if let Ok(mut b) = body.try_into_mut() {
            b.clear();
            pool.push(b);
        }
    }
}

fn write_frame(stream: &mut TcpStream, op: u8, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len() + 1).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "frame body exceeds u32 length")
    })?;
    // Stack-assembled header: framing must not allocate per message.
    let [l0, l1, l2, l3] = len.to_be_bytes();
    let header = [l0, l1, l2, l3, op];
    stream.write_all(&header)?;
    stream.write_all(body)?;
    stream.flush()
}

/// Read one frame, filling a buffer popped from `pool` instead of
/// allocating `vec![0u8; len]` per frame. The returned `Bytes` owns the
/// buffer; when the last handle is dropped via [`recycle_into`] the
/// storage goes back to the pool, so a steady-state consume loop reads
/// every frame into the same few buffers.
fn read_frame_into(stream: &mut TcpStream, pool: &mut Vec<BytesMut>) -> io::Result<(u8, Bytes)> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 || len > 64 << 20 {
        return Err(io::ErrorKind::InvalidData.into());
    }
    let mut body = pool.pop().unwrap_or_default();
    body.resize(len, 0);
    stream.read_exact(&mut body)?;
    let mut b = body.freeze();
    let op = b.get_u8();
    Ok((op, b))
}

/// A broker exposed on a TCP socket.
pub struct BrokerServer {
    broker: Broker,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl BrokerServer {
    /// Start serving `broker` on `127.0.0.1:<ephemeral port>`.
    pub fn start(broker: Broker) -> io::Result<BrokerServer> {
        Self::start_on(broker, SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// Start serving `broker` on a specific address — what a restarted
    /// broker does to come back on the port its clients remember. Note
    /// the rebind can fail with `AddrInUse` while connections the *old*
    /// server closed first linger in TIME_WAIT; clients that disconnect
    /// before the old server goes away avoid that.
    // alloc: cold-fn (server startup + per-accepted-connection setup, never per-message)
    fn start_on(broker: Broker, addr: SocketAddr) -> io::Result<BrokerServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let broker2 = broker.clone();
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let conns2 = Arc::clone(&conns);
        let accept_thread = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(clone) = stream.try_clone() {
                            // lock-order: class=BrokerServer.conns
                            conns2.lock().push(clone);
                        }
                        let broker = broker2.clone();
                        std::thread::spawn(move || {
                            let _ = serve_connection(stream, broker);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(BrokerServer {
            broker,
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped broker (for stats inspection).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }
}

impl Drop for BrokerServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Sever live connections so a "dead" server really is dead —
        // clients see errors and enter their reconnect loop.
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_connection(mut stream: TcpStream, broker: Broker) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // Per-connection consumers; dropped (⇒ redelivery) when the
    // connection closes. Keyed by interned queue name so GET/ACK frames
    // don't allocate a lookup key.
    // alloc: cold (per-connection setup)
    let mut consumers: HashMap<Sym, Consumer> = HashMap::new();
    // Delivery frames are built in one reused buffer per connection;
    // `clear` keeps the high-water-mark capacity across messages.
    let mut out = BytesMut::new();
    // Request-frame buffers cycle through this pool: every opcode except
    // PUBLISH (whose body *becomes* the queued payload) hands its buffer
    // back once decoded.
    let mut pool: Vec<BytesMut> = Vec::new(); // alloc: cold (per-connection setup)
    loop {
        let (op, mut body) = match read_frame_into(&mut stream, &mut pool) {
            Ok(f) => f,
            Err(_) => return Ok(()), // peer closed
        };
        match op {
            OP_DECLARE => {
                let q = get_sym(&mut body)?;
                broker.declare(q.as_str());
                recycle_into(&mut pool, body);
                write_frame(&mut stream, RE_OK, &[])?;
            }
            OP_PUBLISH => {
                let q = get_sym(&mut body)?;
                let key = get_sym(&mut body)?;
                // `body` now views exactly the payload bytes; it is
                // enqueued as-is — the network read buffer IS the queued
                // message, no copy.
                let ok = broker.publish(q.as_str(), key.as_str(), body);
                write_frame(&mut stream, if ok { RE_OK } else { RE_ERR }, &[])?;
            }
            OP_GET => {
                let q = get_sym(&mut body)?;
                if body.remaining() < 4 {
                    recycle_into(&mut pool, body);
                    write_frame(&mut stream, RE_ERR, &[])?;
                    continue;
                }
                let timeout_ms = body.get_u32();
                recycle_into(&mut pool, body);
                let consumer = match consumers.entry(q) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        match broker.consume(q.as_str()) {
                            Some(c) => e.insert(c),
                            None => {
                                write_frame(&mut stream, RE_ERR, &[])?;
                                continue;
                            }
                        }
                    }
                };
                match consumer.get(Duration::from_millis(timeout_ms as u64)) {
                    Some(d) => {
                        out.clear();
                        out.put_u64(d.tag);
                        out.put_u8(d.redelivered as u8);
                        match put_str(&mut out, d.routing_key.as_str()) {
                            Ok(()) => {
                                out.put_slice(&d.payload);
                                write_frame(&mut stream, RE_DELIVERY, &out)?;
                            }
                            Err(_) => {
                                // Undeliverable frame (absurd routing key):
                                // requeue rather than lose the message.
                                consumer.nack(d.tag);
                                write_frame(&mut stream, RE_ERR, &[])?;
                            }
                        }
                    }
                    None => write_frame(&mut stream, RE_EMPTY, &[])?,
                }
            }
            OP_ACK => {
                let q = get_sym(&mut body)?;
                if body.remaining() < 8 {
                    recycle_into(&mut pool, body);
                    write_frame(&mut stream, RE_ERR, &[])?;
                    continue;
                }
                let tag = body.get_u64();
                recycle_into(&mut pool, body);
                let ok = consumers.get(&q).map(|c| c.ack(tag)).unwrap_or(false);
                write_frame(&mut stream, if ok { RE_OK } else { RE_ERR }, &[])?;
            }
            _ => write_frame(&mut stream, RE_ERR, &[])?,
        }
    }
}

/// Client side of the TCP broker protocol.
///
/// The client remembers the server address and transparently reconnects
/// with capped exponential backoff when the connection breaks — the
/// node-side resilience a daemon needs across broker restarts. A
/// request retried after a half-completed exchange (request written,
/// response lost) may be applied twice server-side; publishes are
/// therefore at-least-once, and the consumer's sequence-number dedup is
/// what makes the pipeline exactly-once overall.
pub struct BrokerClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    base_backoff: Duration,
    max_backoff: Duration,
    backoff: Duration,
    max_attempts: u32,
    /// Request bodies are assembled here and the buffer is reused
    /// across requests (taken out for the duration of a call, put
    /// back after), so steady-state publishing does not allocate for
    /// framing — only the payload copy into the kernel remains.
    scratch: BytesMut,
    /// Response frames are read into buffers from this pool, and the
    /// frames the client consumes itself (ack and empty-get replies)
    /// return here, so request/response traffic cycles the same few
    /// buffers instead of allocating per frame. Delivery payloads
    /// borrow their frame buffer and keep it.
    pool: Vec<BytesMut>,
}

impl BrokerClient {
    /// Connect to a [`BrokerServer`] with default reconnect parameters
    /// (3 attempts, 10 ms base backoff capped at 200 ms).
    pub fn connect(addr: SocketAddr) -> io::Result<BrokerClient> {
        Self::connect_with(
            addr,
            Duration::from_millis(10),
            Duration::from_millis(200),
            3,
        )
    }

    /// Connect with explicit reconnect backoff parameters.
    /// `max_attempts` below 1 is normalized to 1 (a request always gets
    /// at least one try).
    fn connect_with(
        addr: SocketAddr,
        base_backoff: Duration,
        max_backoff: Duration,
        max_attempts: u32,
    ) -> io::Result<BrokerClient> {
        let max_attempts = max_attempts.max(1);
        let mut client = BrokerClient {
            addr,
            stream: None,
            base_backoff,
            max_backoff,
            backoff: base_backoff,
            max_attempts,
            scratch: BytesMut::new(),
            pool: Vec::new(), // alloc: cold (client construction; buffers are recycled per request)
        };
        client.ensure_stream()?;
        Ok(client)
    }

    /// Drop the current connection (the next request reconnects). Lets
    /// tests and orderly shutdowns close client-side first.
    #[cfg(test)]
    fn disconnect(&mut self) {
        self.stream = None;
    }

    fn ensure_stream(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(())
    }

    fn roundtrip(&mut self, op: u8, body: &[u8]) -> io::Result<(u8, Bytes)> {
        let mut last_err: io::Error = io::ErrorKind::NotConnected.into();
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff);
                self.backoff = (self.backoff * 2).min(self.max_backoff);
            }
            let result = match self.ensure_stream() {
                Ok(()) => {
                    let pool = &mut self.pool;
                    match self.stream.as_mut() {
                        Some(stream) => write_frame(stream, op, body)
                            .and_then(|()| read_frame_into(stream, pool)),
                        None => Err(io::ErrorKind::NotConnected.into()),
                    }
                }
                Err(e) => Err(e),
            };
            match result {
                Ok(frame) => {
                    self.backoff = self.base_backoff;
                    return Ok(frame);
                }
                Err(e) => {
                    self.stream = None;
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Declare a queue.
    pub fn declare(&mut self, queue: &str) -> io::Result<()> {
        let mut b = std::mem::take(&mut self.scratch);
        b.clear();
        let result = put_str(&mut b, queue).and_then(|()| self.roundtrip(OP_DECLARE, &b));
        self.scratch = b;
        let (re, body) = result?;
        recycle_into(&mut self.pool, body);
        if re == RE_OK {
            Ok(())
        } else {
            Err(io::ErrorKind::Other.into())
        }
    }

    /// Publish a payload.
    pub fn publish(&mut self, queue: &str, routing_key: &str, payload: &[u8]) -> io::Result<()> {
        let mut b = std::mem::take(&mut self.scratch);
        b.clear();
        let result = put_str(&mut b, queue)
            .and_then(|()| put_str(&mut b, routing_key))
            .and_then(|()| {
                b.put_slice(payload);
                self.roundtrip(OP_PUBLISH, &b)
            });
        self.scratch = b;
        let (re, body) = result?;
        recycle_into(&mut self.pool, body);
        if re == RE_OK {
            Ok(())
        } else {
            Err(io::ErrorKind::NotFound.into())
        }
    }

    /// Fetch the next message, waiting up to `timeout` server-side.
    pub fn get(&mut self, queue: &str, timeout: Duration) -> io::Result<Option<Delivery>> {
        let mut b = std::mem::take(&mut self.scratch);
        b.clear();
        let result = put_str(&mut b, queue).and_then(|()| {
            b.put_u32(timeout.as_millis().min(u32::MAX as u128) as u32);
            self.roundtrip(OP_GET, &b)
        });
        self.scratch = b;
        let (re, mut body) = result?;
        match re {
            RE_DELIVERY => {
                if body.remaining() < 9 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                let tag = body.get_u64();
                let redelivered = body.get_u8() != 0;
                let routing_key = get_sym(&mut body)?;
                // The payload is the tail of the frame buffer — parsed
                // in place, never copied out.
                Ok(Some(Delivery {
                    tag,
                    routing_key,
                    payload: body,
                    redelivered,
                }))
            }
            RE_EMPTY => {
                recycle_into(&mut self.pool, body);
                Ok(None)
            }
            _ => Err(io::ErrorKind::Other.into()),
        }
    }

    /// Acknowledge a delivery.
    pub fn ack(&mut self, queue: &str, tag: u64) -> io::Result<bool> {
        let mut b = std::mem::take(&mut self.scratch);
        b.clear();
        let result = put_str(&mut b, queue).and_then(|()| {
            b.put_u64(tag);
            self.roundtrip(OP_ACK, &b)
        });
        self.scratch = b;
        let (re, body) = result?;
        recycle_into(&mut self.pool, body);
        Ok(re == RE_OK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_roundtrip_publish_consume_ack() {
        let server = BrokerServer::start(Broker::new()).unwrap();
        let mut producer = BrokerClient::connect(server.addr()).unwrap();
        producer.declare("stats").unwrap();
        producer.publish("stats", "c401-0001", b"sample-1").unwrap();
        producer.publish("stats", "c401-0002", b"sample-2").unwrap();

        let mut consumer = BrokerClient::connect(server.addr()).unwrap();
        let d1 = consumer
            .get("stats", Duration::from_secs(1))
            .unwrap()
            .expect("message 1");
        assert_eq!(&d1.payload[..], b"sample-1");
        assert_eq!(d1.routing_key, "c401-0001");
        assert!(consumer.ack("stats", d1.tag).unwrap());
        let d2 = consumer
            .get("stats", Duration::from_secs(1))
            .unwrap()
            .expect("message 2");
        assert_eq!(&d2.payload[..], b"sample-2");
        assert!(consumer.ack("stats", d2.tag).unwrap());
        assert!(consumer
            .get("stats", Duration::from_millis(10))
            .unwrap()
            .is_none());
        assert_eq!(server.broker().stats().queues["stats"].acked, 2);
    }

    #[test]
    fn publish_to_missing_queue_errors() {
        let server = BrokerServer::start(Broker::new()).unwrap();
        let mut c = BrokerClient::connect(server.addr()).unwrap();
        assert!(c.publish("ghost", "k", b"x").is_err());
    }

    #[test]
    fn consumer_disconnect_redelivers_over_tcp() {
        let server = BrokerServer::start(Broker::new()).unwrap();
        let mut producer = BrokerClient::connect(server.addr()).unwrap();
        producer.declare("stats").unwrap();
        producer.publish("stats", "n", b"precious").unwrap();
        {
            let mut c1 = BrokerClient::connect(server.addr()).unwrap();
            let d = c1.get("stats", Duration::from_secs(1)).unwrap().unwrap();
            assert_eq!(&d.payload[..], b"precious");
            // No ack; connection drops.
        }
        // Server notices the disconnect when its read fails; the consumer
        // drop requeues. Poll until redelivered.
        let mut c2 = BrokerClient::connect(server.addr()).unwrap();
        let mut redelivered = None;
        for _ in 0..100 {
            if let Some(d) = c2.get("stats", Duration::from_millis(50)).unwrap() {
                redelivered = Some(d);
                break;
            }
        }
        let d = redelivered.expect("message must be redelivered");
        assert!(d.redelivered);
        assert_eq!(&d.payload[..], b"precious");
    }

    #[test]
    fn client_reconnects_after_server_restart_on_same_port() {
        let broker = Broker::new();
        broker.declare("stats");
        let server = BrokerServer::start(broker.clone()).unwrap();
        let addr = server.addr();
        let mut client = BrokerClient::connect_with(
            addr,
            Duration::from_millis(5),
            Duration::from_millis(40),
            4,
        )
        .unwrap();
        client.publish("stats", "n", b"before-outage").unwrap();

        // Orderly client-side close first (avoids server-side TIME_WAIT
        // on the listen port), then the server goes away entirely.
        client.disconnect();
        drop(server);
        assert!(
            client.publish("stats", "n", b"during-outage").is_err(),
            "publish must fail while the server is down"
        );

        // Broker process comes back on the same port; the same client
        // object reconnects transparently.
        let mut restarted = None;
        for _ in 0..40 {
            match BrokerServer::start_on(broker.clone(), addr) {
                Ok(s) => {
                    restarted = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        let server2 = restarted.expect("rebind on the original port");
        client.publish("stats", "n", b"after-restart").unwrap();
        assert_eq!(server2.broker().stats().queues["stats"].published, 2);
        assert_eq!(server2.broker().depth("stats"), 2);
    }

    #[test]
    fn dropping_server_severs_live_connections() {
        let server = BrokerServer::start(Broker::new()).unwrap();
        let mut c = BrokerClient::connect(server.addr()).unwrap();
        c.declare("q").unwrap();
        drop(server);
        assert!(c.declare("q").is_err());
    }

    #[test]
    fn many_tcp_producers() {
        let server = BrokerServer::start(Broker::new()).unwrap();
        {
            let mut c = BrokerClient::connect(server.addr()).unwrap();
            c.declare("stats").unwrap();
        }
        let addr = server.addr();
        crossbeam::thread::scope(|s| {
            for p in 0..4 {
                s.spawn(move |_| {
                    let mut c = BrokerClient::connect(addr).unwrap();
                    for i in 0..25 {
                        c.publish("stats", &format!("node{p}"), format!("{p}:{i}").as_bytes())
                            .unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(server.broker().stats().queues["stats"].published, 100);
    }
}
