//! Bad fixture: blocking I/O performed while a mutex guard is live —
//! once directly, once through a same-impl helper call, once by handing
//! the guarded connection to a closure — and lsc-analyze must report
//! `lock-across-io` for all three.

use std::sync::Mutex;

pub struct Log {
    state: Mutex<u32>,
    conn: Mutex<Conn>,
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
    pub fn direct(&self) {
        let _g = self.state.lock().unwrap();
        let _ = std::fs::write("/tmp/fixture", b"direct");
    }

    pub fn transitive(&self) {
        let _g = self.state.lock().unwrap();
        self.flush();
    }

    fn flush(&self) {
        let _ = std::fs::write("/tmp/fixture", b"flush");
    }

    pub fn through_guard<F: Fn(&mut Conn)>(&self, op: F) {
        let mut conn = self.conn.lock().unwrap();
        op(&mut conn);
    }
}
