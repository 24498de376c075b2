//! The session registry: who owns which prepared instance, per connection.
//!
//! A `prepare` binds an [`InstanceHandle`] (plus the alphabet used to
//! format witnesses, and — once an `enumerate` has run — the live
//! [`WordCursor`]) to a server-assigned session name. Sessions are scoped
//! to their connection: one client cannot touch (or even probe for)
//! another client's sessions. The handle pins the prepared artifact, so a
//! session survives engine-cache eviction; dropping the session releases
//! the pin.
//!
//! **Idle eviction.** Sessions that have not been touched within the TTL
//! are swept — a client that walked away mid-stream does not pin its
//! instance forever. The registry keeps a lower bound on the earliest
//! expiry, so `open`, `take`, `close` and `len` sweep only once something
//! can have expired: one clock read per call, and a full pass over the
//! table only past the bound (a sweep before it would remove nothing, so
//! what callers observe is exactly an every-call sweep). An evicted
//! session behaves exactly like a closed one (`unknown-session` on next
//! use); the client re-opens with `prepare` (cheap: the instance is
//! usually still cached) and, for enumeration, continues from its last
//! resume token — tokens outlive sessions by design.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lsc_automata::Alphabet;

use crate::engine::{InstanceHandle, WordCursor};

/// One open session: the pinned instance, how to print its witnesses, and
/// the live cursor (if an enumeration is in flight).
pub struct Session {
    /// The pinned prepared instance.
    pub handle: InstanceHandle,
    /// Formats witnesses for the wire.
    pub alphabet: Alphabet,
    /// The live enumeration cursor, if any.
    pub cursor: Option<WordCursor>,
    last_used: Instant,
}

/// The connection-scoped session table. See the module docs.
pub struct SessionRegistry {
    inner: Mutex<Table>,
    ttl: Duration,
    next_id: AtomicU64,
    evicted: AtomicU64,
}

/// The sessions, plus a lower bound on the earliest `last_used + ttl`
/// among them (`None` when nothing can expire).
struct Table {
    sessions: HashMap<(u64, String), Session>,
    earliest_expiry: Option<Instant>,
}

impl SessionRegistry {
    /// A registry whose sessions idle out after `ttl`.
    pub fn new(ttl: Duration) -> SessionRegistry {
        SessionRegistry {
            inner: Mutex::new(Table {
                sessions: HashMap::new(),
                earliest_expiry: None,
            }),
            ttl,
            next_id: AtomicU64::new(1),
            evicted: AtomicU64::new(0),
        }
    }

    /// Opens a session on a connection; returns the server-assigned name
    /// (`s1`, `s2`, ...; unique server-wide).
    pub fn open(&self, conn: u64, handle: InstanceHandle, alphabet: Alphabet) -> String {
        let name = format!("s{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let mut table = self.lock();
        let now = self.sweep(&mut table);
        self.insert(
            &mut table,
            (conn, name.clone()),
            Session {
                handle,
                alphabet,
                cursor: None,
                last_used: now,
            },
        );
        name
    }

    /// Checks a session out for one request: the entry leaves the table
    /// (so its cursor can be driven without holding the registry lock) and
    /// must be returned via [`SessionRegistry::put_back`]. `None` if the
    /// connection has no such session (never opened, closed, or evicted).
    pub fn take(&self, conn: u64, name: &str) -> Option<Session> {
        let mut table = self.lock();
        let now = self.sweep(&mut table);
        table
            .sessions
            .remove(&(conn, name.to_string()))
            .map(|mut s| {
                s.last_used = now;
                s
            })
    }

    /// Returns a checked-out session to the table, refreshing its idle
    /// clock.
    pub fn put_back(&self, conn: u64, name: &str, mut session: Session) {
        session.last_used = Instant::now();
        let mut table = self.lock();
        self.insert(&mut table, (conn, name.to_string()), session);
    }

    /// Closes one session. Returns whether it existed.
    pub fn close(&self, conn: u64, name: &str) -> bool {
        let mut table = self.lock();
        self.sweep(&mut table);
        table.sessions.remove(&(conn, name.to_string())).is_some()
    }

    /// Drops every session a connection owns (the disconnect hook).
    pub fn drop_conn(&self, conn: u64) {
        self.lock().sessions.retain(|(owner, _), _| *owner != conn);
    }

    /// Open sessions, server-wide.
    pub fn len(&self) -> usize {
        let mut table = self.lock();
        self.sweep(&mut table);
        table.sessions.len()
    }

    /// True when no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions evicted by the idle TTL so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.inner.lock().expect("session registry poisoned")
    }

    /// When `session` idles out (`None`: never, the TTL overflows).
    fn expiry(&self, session: &Session) -> Option<Instant> {
        session.last_used.checked_add(self.ttl)
    }

    fn insert(&self, table: &mut Table, key: (u64, String), session: Session) {
        if let Some(expiry) = self.expiry(&session) {
            lower_to(&mut table.earliest_expiry, expiry);
        }
        table.sessions.insert(key, session);
    }

    /// Evicts every session idle past the TTL, but only once `now` is past
    /// the earliest-expiry bound; recomputes the bound from the survivors.
    /// Returns `now`, the call's one clock read.
    fn sweep(&self, table: &mut Table) -> Instant {
        let now = Instant::now();
        if table.earliest_expiry.is_none_or(|bound| now <= bound) {
            return now;
        }
        let before = table.sessions.len();
        let mut earliest: Option<Instant> = None;
        table.sessions.retain(|_, s| {
            let Some(expiry) = self.expiry(s) else {
                return true;
            };
            if now > expiry {
                return false;
            }
            lower_to(&mut earliest, expiry);
            true
        });
        table.earliest_expiry = earliest;
        let evicted = before - table.sessions.len();
        if evicted > 0 {
            self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        now
    }
}

fn lower_to(bound: &mut Option<Instant>, expiry: Instant) {
    *bound = Some(bound.map_or(expiry, |b| b.min(expiry)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use lsc_automata::families::blowup_nfa;
    use std::sync::Arc;

    fn handle(engine: &Engine) -> InstanceHandle {
        engine.prepare_nfa(&Arc::new(blowup_nfa(3)), 6)
    }

    #[test]
    fn sessions_are_connection_scoped() {
        let engine = Engine::with_defaults();
        let registry = SessionRegistry::new(Duration::from_secs(60));
        let name = registry.open(1, handle(&engine), Alphabet::binary());
        assert!(registry.take(2, &name).is_none(), "foreign connection");
        let session = registry.take(1, &name).expect("owner sees it");
        registry.put_back(1, &name, session);
        assert!(registry.close(1, &name));
        assert!(!registry.close(1, &name), "already closed");
    }

    #[test]
    fn names_are_unique_and_drop_conn_clears() {
        let engine = Engine::with_defaults();
        let registry = SessionRegistry::new(Duration::from_secs(60));
        let a = registry.open(1, handle(&engine), Alphabet::binary());
        let b = registry.open(1, handle(&engine), Alphabet::binary());
        let c = registry.open(2, handle(&engine), Alphabet::binary());
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(registry.len(), 3);
        registry.drop_conn(1);
        assert_eq!(registry.len(), 1);
        assert!(registry.take(2, &c).is_some());
    }

    #[test]
    fn idle_sessions_evict() {
        let engine = Engine::with_defaults();
        let registry = SessionRegistry::new(Duration::from_millis(20));
        let name = registry.open(1, handle(&engine), Alphabet::binary());
        std::thread::sleep(Duration::from_millis(40));
        assert!(registry.take(1, &name).is_none(), "idled out");
        assert_eq!(registry.evicted(), 1);
        assert!(registry.is_empty());
    }

    #[test]
    fn a_refreshed_session_outlives_its_first_expiry() {
        let engine = Engine::with_defaults();
        let ttl = Duration::from_millis(200);
        let registry = SessionRegistry::new(ttl);
        let name = registry.open(1, handle(&engine), Alphabet::binary());
        // Touch it every quarter TTL for three TTLs: the bound set at open
        // passes, the sweep runs, and the refreshed entry must survive it.
        for _ in 0..12 {
            std::thread::sleep(ttl / 4);
            let session = registry.take(1, &name).expect("refreshed, still open");
            registry.put_back(1, &name, session);
        }
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.evicted(), 0);
    }

    #[test]
    fn take_close_and_len_each_see_one_eviction() {
        type Observe = fn(&SessionRegistry, &str) -> bool;
        let observers: [(&str, Observe); 3] = [
            ("take", |r, name| r.take(1, name).is_some()),
            ("close", |r, name| r.close(1, name)),
            ("len", |r, _| !r.is_empty()),
        ];
        let engine = Engine::with_defaults();
        for (first, observe) in observers {
            let registry = SessionRegistry::new(Duration::from_millis(20));
            let name = registry.open(1, handle(&engine), Alphabet::binary());
            std::thread::sleep(Duration::from_millis(40));
            assert!(!observe(&registry, &name), "{first} saw an idle session");
            assert_eq!(registry.evicted(), 1, "{first} swept");
            for (_, again) in observers {
                assert!(!again(&registry, &name), "evicted session came back");
            }
            assert_eq!(registry.evicted(), 1, "evicted once, after {first}");
        }
    }

    #[test]
    fn len_is_exact_under_a_mix_of_refreshed_and_idle_sessions() {
        let engine = Engine::with_defaults();
        let shared = handle(&engine);
        let ttl = Duration::from_secs(1);
        let registry = SessionRegistry::new(ttl);
        let names: Vec<String> = (0..200)
            .map(|i| registry.open(i % 7, shared.clone(), Alphabet::binary()))
            .collect();
        assert_eq!(registry.len(), 200);
        std::thread::sleep(ttl * 3 / 5);
        for (i, name) in names.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            let conn = i as u64 % 7;
            let session = registry.take(conn, name).expect("not idle yet");
            registry.put_back(conn, name, session);
        }
        assert_eq!(registry.len(), 200, "nothing has expired yet");
        std::thread::sleep(ttl * 3 / 5);
        // The untouched half is past the TTL, the refreshed half is not.
        assert_eq!(registry.len(), 100);
        assert_eq!(registry.evicted(), 100);
        for (i, name) in names.iter().enumerate() {
            let conn = i as u64 % 7;
            assert_eq!(registry.close(conn, name), i % 2 == 0, "session {i}");
        }
        assert!(registry.is_empty());
        assert_eq!(registry.evicted(), 100);
    }
}
