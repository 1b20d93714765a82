//! Construction-phase markers — the hook the memory audit hangs off.
//!
//! The construction path (hopset scales, overlay CSR blocks, oracle
//! assembly) lives in crates that must not depend on the experiment
//! harness, yet the harness wants per-phase accounting (peak heap bytes,
//! allocation counts — ISSUE 9 / ROADMAP item 3). This module is the
//! seam: algorithm code brackets its phases with [`PhaseScope`], and a
//! process-wide hook — installed once, by the harness — observes the
//! enter/exit events. With no hook installed a scope costs one atomic
//! load, so production query paths pay nothing.
//!
//! The hook is deliberately *not* part of the determinism contract
//! surface: it observes phase boundaries, it cannot change chunking,
//! scheduling, or any computed value.

use std::sync::OnceLock;

/// A phase boundary event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseEvent {
    /// The named phase begins.
    Enter,
    /// The named phase ends (scopes unwind in LIFO order).
    Exit,
}

/// The observer signature: called on every [`PhaseScope`] enter and exit.
/// Must be cheap and must not panic (it runs inside construction loops).
pub type PhaseHook = fn(PhaseEvent, &'static str);

/// The installed hook, set at most once.
static HOOK: OnceLock<PhaseHook> = OnceLock::new();

/// Install the process-wide phase hook. The first call wins (returns
/// `true`); later calls are ignored (returns `false`) so two experiment
/// harnesses cannot interleave observers mid-run.
pub fn install_phase_hook(hook: PhaseHook) -> bool {
    HOOK.set(hook).is_ok()
}

/// True if a hook is installed (diagnostics only).
pub fn phase_hook_installed() -> bool {
    HOOK.get().is_some()
}

#[inline]
fn emit(ev: PhaseEvent, name: &'static str) {
    if let Some(hook) = HOOK.get() {
        hook(ev, name);
    }
}

/// RAII marker for one construction phase: emits [`PhaseEvent::Enter`] on
/// creation and [`PhaseEvent::Exit`] on drop. Scopes nest; observers see
/// strictly LIFO enter/exit pairs per thread.
#[must_use = "a phase scope marks a region; binding it to `_` drops it immediately"]
pub struct PhaseScope {
    name: &'static str,
}

impl PhaseScope {
    /// Enter the named phase.
    pub fn enter(name: &'static str) -> PhaseScope {
        emit(PhaseEvent::Enter, name);
        PhaseScope { name }
    }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        emit(PhaseEvent::Exit, self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // The hook is process-global and first-install-wins, so a single test
    // exercises install + delivery + LIFO nesting (parallel test threads
    // would otherwise race on who installs).
    static SEEN: AtomicUsize = AtomicUsize::new(0);

    fn test_hook(ev: PhaseEvent, name: &'static str) {
        // Encode a tiny trace: 2 bits per event, enters odd, exits even.
        let code = match (ev, name) {
            (PhaseEvent::Enter, "outer") => 1,
            (PhaseEvent::Enter, "inner") => 3,
            (PhaseEvent::Exit, "inner") => 4,
            (PhaseEvent::Exit, "outer") => 2,
            _ => 7,
        };
        SEEN.fetch_add(code, Ordering::Relaxed);
    }

    #[test]
    fn hook_sees_lifo_scopes_and_second_install_loses() {
        // Scopes are inert before installation.
        {
            let _p = PhaseScope::enter("outer");
        }
        assert_eq!(SEEN.load(Ordering::Relaxed), 0);

        assert!(install_phase_hook(test_hook));
        assert!(phase_hook_installed());
        assert!(!install_phase_hook(test_hook), "second install must lose");

        {
            let _o = PhaseScope::enter("outer");
            let _i = PhaseScope::enter("inner");
        }
        // 1 + 3 + 4 + 2: both scopes entered and exited exactly once.
        assert_eq!(SEEN.load(Ordering::Relaxed), 10);
    }
}
