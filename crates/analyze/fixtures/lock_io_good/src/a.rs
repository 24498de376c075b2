//! Good fixture: the guard is always released — by scope or by explicit
//! `drop` — before any blocking I/O runs, the helper is only called
//! unheld, and the connection a closure gets is owned, not guarded.
//! lsc-analyze must stay silent.

use std::sync::Mutex;

pub struct Log {
    state: Mutex<u32>,
}

pub struct Conn {
    addr: String,
}

impl Conn {
    pub fn call(&mut self) {
        let _ = std::net::TcpStream::connect(&self.addr);
    }
}

impl Log {
    pub fn scoped(&self) {
        {
            let mut g = self.state.lock().unwrap();
            *g += 1;
        }
        let _ = std::fs::write("/tmp/fixture", b"scoped");
    }

    pub fn dropped(&self) {
        let g = self.state.lock().unwrap();
        let snapshot = *g;
        drop(g);
        let _ = std::fs::write("/tmp/fixture", snapshot.to_string());
    }

    pub fn unheld_helper(&self) {
        {
            let mut g = self.state.lock().unwrap();
            *g += 1;
        }
        self.flush();
    }

    fn flush(&self) {
        let _ = std::fs::write("/tmp/fixture", b"flush");
    }

    pub fn owned_conn<F: Fn(&mut Conn)>(&self, conn: &mut Conn, op: F) {
        {
            let mut g = self.state.lock().unwrap();
            *g += 1;
        }
        op(conn);
    }
}
