"""Static model lint: dataflow, control-flow and interprocedural analyses."""

from .cfg import (
    Cfg,
    FunctionControlFlow,
    ProcessControlFlow,
    WaitStateMachine,
    analyze_function,
    analyze_process,
)
from .dataflow import (
    DesignDataflow,
    ProcessSummary,
    SignalUse,
    cross_check,
    summarize_process,
)
from .interproc import (
    AcquireSite,
    LockTrace,
    acquire_sites,
    lock_order_trace,
    release_closure,
)
from .lint import (
    DEADLOCK_RULE_CODE,
    STATIC_DEADLOCK_RULE_CODE,
    RULES,
    Diagnostic,
    LintContext,
    LintReport,
    Rule,
    all_rule_codes,
    register_rule,
    rule,
    run_lint,
)

__all__ = [
    "AcquireSite",
    "Cfg",
    "DEADLOCK_RULE_CODE",
    "DesignDataflow",
    "Diagnostic",
    "FunctionControlFlow",
    "LintContext",
    "LintReport",
    "LockTrace",
    "ProcessControlFlow",
    "ProcessSummary",
    "RULES",
    "Rule",
    "STATIC_DEADLOCK_RULE_CODE",
    "SignalUse",
    "WaitStateMachine",
    "acquire_sites",
    "all_rule_codes",
    "analyze_function",
    "analyze_process",
    "cross_check",
    "lock_order_trace",
    "register_rule",
    "release_closure",
    "rule",
    "run_lint",
    "summarize_process",
]
