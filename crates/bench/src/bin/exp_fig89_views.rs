//! E6 (Figures 8 and 9): the two alternative views on the same deployed
//! system — middleware-provided interaction systems as the design object
//! versus application-dependent interaction systems as the design object.

use svckit::mda::views::{floor_control_description, view_of, ViewKind};
use svckit_sweep::{check_flags, fail, outln};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, &[], &[]).unwrap_or_else(|e| fail(&e));
    outln!("E6 — two views on one distributed system (Figures 8-9)\n");
    let description = floor_control_description(4);
    outln!(
        "system `{}` with {} element(s):",
        description.name(),
        description.elements().len()
    );
    for element in description.elements() {
        outln!("  {:<22} {:?}", element.name(), element.kind());
    }
    outln!();

    for (kind, figure) in [
        (ViewKind::MiddlewareInteractionSystems, "Figure 8"),
        (ViewKind::ApplicationInteractionSystems, "Figure 9"),
    ] {
        let view = view_of(&description, kind);
        outln!("{figure} — {kind:?}");
        outln!("  application parts:   {:?}", view.application_parts());
        outln!("  interaction system:  {:?}", view.interaction_system());
        assert_eq!(
            view.application_parts().len() + view.interaction_system().len(),
            description.elements().len(),
            "views must partition the element set exactly"
        );
        outln!();
    }

    let fig8 = view_of(&description, ViewKind::MiddlewareInteractionSystems);
    let fig9 = view_of(&description, ViewKind::ApplicationInteractionSystems);
    assert!(fig9.interaction_system().len() > fig8.interaction_system().len());
    outln!("Invariants verified: both views partition the same elements; the");
    outln!("Figure 9 boundary strictly contains the Figure 8 boundary (the");
    outln!("controller moves from 'application part' to 'interaction system').");
}
